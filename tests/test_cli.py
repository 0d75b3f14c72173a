"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from kgalign import embedder
from kgalign.cli import main
from kgalign.data import LINKS_FILE, TRIPLE_FILES, DatasetBundle, load_dataset, read_predictions
from kgalign.em import EmConfig
from kgalign.embedder import Hyperparams, Origin
from kgalign.explain import explain, hard_anchors, render_report, soft_anchors
from kgalign.symbolic import compute_functionalities, update_subrelation_probs

import oracles
from conftest import isomorphic_pair


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    pair, gold = isomorphic_pair(31, n_entities=30, n_relations=3, n_triples=80)
    root = tmp_path_factory.mktemp("dataset")
    bundle = DatasetBundle(pair=pair, links=tuple(sorted(gold.items())), provenance={})
    oracles.save_dataset(bundle, root)
    (root / "run.conf").write_text(
        "# fast settings for tests\nneural.epochs=10\nneural.dim=8\n",
        encoding="utf-8",
    )
    labels = [
        (pair.source.entity_labels[s], pair.target.entity_labels[t])
        for s, t in sorted(gold.items())
    ]
    (root / "query_pairs").write_text(
        f"{labels[5][0]}\t{labels[5][1]}\n", encoding="utf-8"
    )
    return root


def run_align(dataset_dir, out, *extra):
    return main(
        [
            "align",
            str(dataset_dir),
            "--out",
            str(out),
            "--iterations",
            "2",
            "--train-ratio",
            "0.3",
            "--config",
            str(dataset_dir / "run.conf"),
            *extra,
        ]
    )


class TestAlign:
    def test_minimal_run_writes_three_files(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_align(dataset_dir, out) == 0
        names = sorted(f.name for f in out.iterdir())
        assert names == ["manifest.txt", "metrics.tsv", "predictions.tsv"]
        stdout = capsys.readouterr().out
        assert "# ranking (test sources)" in stdout
        assert f"wrote {out}" in stdout
        metrics = (out / "metrics.tsv").read_text(encoding="utf-8")
        assert "hit@1\t" in metrics
        assert "precision\t" in metrics

    def test_reruns_are_byte_identical(self, dataset_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_align(dataset_dir, out_a) == 0
        assert run_align(dataset_dir, out_b) == 0
        for name in ("predictions.tsv", "metrics.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_full_output_artifacts(self, dataset_dir, tmp_path):
        out = tmp_path / "full"
        rc = run_align(
            dataset_dir,
            out,
            "--full-output",
            "--explain-pairs",
            str(dataset_dir / "query_pairs"),
        )
        assert rc == 0
        for name in (
            "rankings.tsv",
            "truth_scores.tsv",
            "psub_source_in_target.tsv",
            "psub_target_in_source.tsv",
        ):
            assert (out / name).is_file()
        assert not (out / "model.npz").exists()
        for name in ("train_links", "valid_links", "test_links"):
            assert (out / "splits" / name).is_file()
        assert (out / "explanations" / "0001.txt").is_file()
        report = (out / "explanations" / "0001.txt").read_text(encoding="utf-8")
        assert report.startswith("query\t")

    def test_unknown_explain_label_fails_before_the_run(self, dataset_dir, tmp_path, capsys, caplog):
        queries = tmp_path / "queries.tsv"
        good = (dataset_dir / "query_pairs").read_text(encoding="utf-8")
        queries.write_text(good + "\nzzz\t" + good.split("\t")[1], encoding="utf-8")
        out = tmp_path / "run"
        with caplog.at_level("INFO"):
            rc = run_align(dataset_dir, out, "--explain-pairs", str(queries))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: queries.tsv:3: link references unknown source entity 'zzz'"
        ]
        assert not any("iteration" in r.getMessage() for r in caplog.records)
        assert not out.exists()

    @pytest.mark.parametrize("train, valid", [("0.6", 0.3), ("0.7", 0.3), ("0.9", 0.1), ("1", 0.0)])
    def test_default_valid_ratio_fits_the_train_ratio(self, dataset_dir, tmp_path, train, valid):
        out = tmp_path / "run"
        args = ["--out", str(out), "--iterations", "1", "--symbolic-only", "--train-ratio", train]
        rc = main(["align", str(dataset_dir), *args])
        assert rc == 0
        manifest = dict(
            line.split("\t", 1) for line in (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        )
        assert float(manifest["config.valid_ratio"]) == pytest.approx(valid, abs=1e-12)

    def test_symbolic_only_has_no_model(self, dataset_dir, tmp_path):
        out = tmp_path / "sym"
        rc = run_align(dataset_dir, out, "--symbolic-only", "--full-output")
        assert rc == 0
        assert not (out / "model.npz").exists()
        assert (out / "truth_scores.tsv").is_file()

    def test_missing_dataset_fails(self, tmp_path, capsys):
        rc = main(["align", str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_fails(self, dataset_dir, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("bogus=1\n", encoding="utf-8")
        rc = main(
            ["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--config", str(conf)]
        )
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "hidden_weight=-1",
            "rank_depth=0",
            # removed keys: a config that still sets one fails as unknown
            "pseudo_budget=-1",
            "pseudo_budget=ten",
            "confidence_floor=7",
            "top_c=50",
            "neural.learning_rate=-1",
            "neural.learning_rate=nan",
            "neural.learning_rate=inf",
            "neural.margin=0",
            "neural.margin=inf",
            "neural.negatives=2",
            "neural.triple_weight=-0.5",
            "neural.triple_weight=nan",
            "iterations=None",
            # kept on EmConfig for library callers only; no config file sets it
            "workers=1",
            "workers=2",
            "hidden_weight=inf",
            "hidden_weight=nan",
            "train_ratio=nan",
            "train_ratio=abc",
            "valid_ratio=inf",
            "seed=-1",
        ],
    )
    def test_bad_config_value_fails(self, dataset_dir, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        rc = main(
            ["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--config", str(conf)]
        )
        assert rc == 2
        err_lines = capsys.readouterr().err.splitlines()
        key = line.partition("=")[0].rsplit(".", 1)[-1]
        assert any(msg.startswith("error:") and key in msg for msg in err_lines)
        assert not (tmp_path / "x").exists()

    def test_bad_delta_fails(self, dataset_dir, tmp_path, capsys):
        rc = main(
            ["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--delta", "1.5"]
        )
        assert rc == 2
        assert "delta" in capsys.readouterr().err

    def test_negative_seed_fails(self, dataset_dir, tmp_path, capsys):
        rc = main(["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--seed=-1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not (tmp_path / "x").exists()

    def test_removed_hard_negative_key_fails(self, dataset_dir, tmp_path, capsys):
        conf = tmp_path / "old.conf"
        conf.write_text("neural.hard_negative_fraction=0.5\n", encoding="utf-8")
        rc = main(["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--config", str(conf)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown config key 'neural.hard_negative_fraction'"
        ]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "message, line",
        [
            (
                "Unable to allocate 7.28 TiB for an array with shape (1000, 1000000000000)",
                "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000, 1000000000000)",
            ),
            ("", "error: out of memory"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_one_error_line(self, dataset_dir, tmp_path, capsys, monkeypatch, message, line):
        # the model's tables are the first allocation a huge neural.dim
        # reaches; raising here stands in for it without allocating anything
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(embedder, "init_model", no_memory)
        conf = tmp_path / "huge.conf"
        conf.write_text("neural.dim=1000000000000\n", encoding="utf-8")
        rc = main(["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--config", str(conf)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [line]


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("state") / "run"
    assert run_align(dataset_dir, out, "--full-output") == 0
    return out


def explain_edited_predictions(capsys, dataset_dir, run_dir, tmp_path, edit):
    """Run ``explain`` on a copy of ``run_dir`` whose second predictions
    line is ``edit(first line's fields, second line's fields)``; check
    that it fails with nothing on stdout, and return what it printed."""
    state = tmp_path / "state"
    shutil.copytree(run_dir, state)
    lines = (state / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2
    lines[1] = "\t".join(edit(lines[0].split("\t"), lines[1].split("\t")))
    (state / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    queries = str(dataset_dir / "query_pairs")
    assert main(["explain", str(dataset_dir), "--pairs", queries, "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured


class TestExplain:
    def test_hard_mode(self, dataset_dir, run_dir, capsys):
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(run_dir),
                "--mode",
                "hard",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("query\t")
        assert "mode=hard" in out

    def test_soft_mode_with_top(self, dataset_dir, run_dir, capsys):
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(run_dir),
                "--mode",
                "soft",
                "--top",
                "1",
            ]
        )
        assert rc == 0
        assert "mode=soft" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_exhaustive_reports_every_walk_pair(self, dataset_dir, run_dir, capsys, mode):
        bundle = load_dataset(dataset_dir)
        pair = bundle.pair
        src, tgt, score, origin = read_predictions(run_dir / "predictions.tsv", pair)
        args = (
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            update_subrelation_probs(pair, src, tgt, score),
            2,
        )
        pairs = list(zip(src.tolist(), tgt.tolist()))
        observed = [p for p, o in zip(pairs, origin) if o is Origin.OBSERVED]
        anchors = hard_anchors(observed) if mode == "hard" else soft_anchors(observed, pairs)
        expected, widened = [], 0
        for query in bundle.links:
            exps = explain(pair, query, anchors, *args, exhaustive=True)
            expected.append(render_report(pair, query, exps, anchors.mode))
            widened += exps != explain(pair, query, anchors, *args)
        # the walks find rules the shortest paths miss
        assert widened > 0
        queries_file = str(dataset_dir / LINKS_FILE)
        argv = ["explain", str(dataset_dir), "--pairs", queries_file, "--state", str(run_dir)]
        assert main([*argv, "--mode", mode, "--exhaustive"]) == 0
        assert capsys.readouterr().out == "".join(expected)

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_bad_top_fails(self, dataset_dir, run_dir, capsys, top):
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(run_dir),
                f"--top={top}",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --top must be >= 1, got {top}"]

    @pytest.mark.parametrize("exhaustive", [[], ["--exhaustive"]])
    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_bad_rule_length_fails(self, dataset_dir, run_dir, capsys, exhaustive, length):
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(run_dir),
                f"--rule-length={length}",
                *exhaustive,
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: path length bound must be >= 1, got {length}"]

    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_bad_rule_length_fails_without_queries(self, dataset_dir, run_dir, tmp_path, capsys, length):
        # no query reaches explain(), so the command itself must reject the bound
        empty = tmp_path / "no_pairs"
        empty.write_text("", encoding="utf-8")
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(empty),
                "--state",
                str(run_dir),
                f"--rule-length={length}",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: path length bound must be >= 1, got {length}"]

    @pytest.mark.parametrize("value", ["7.0", "-0.5", "nan", "inf", "abc"])
    def test_bad_score_fails(self, dataset_dir, run_dir, tmp_path, capsys, value):
        captured = explain_edited_predictions(
            capsys, dataset_dir, run_dir, tmp_path, lambda first, second: [*second[:2], value, second[3]]
        )
        assert captured.err.splitlines() == [
            f"error: predictions.tsv:2: score must be a number in [0, 1], got {value!r}"
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda first, second: [*second[:3], "seed"],
                "unknown origin 'seed', expected observed, symbolic or neural",
            ),
            (lambda first, second: [first[0], *second[1:]], "repeated source entity {0!r}"),
            (lambda first, second: [second[0], first[1], *second[2:]], "repeated target entity {1!r}"),
        ],
        ids=["origin", "source", "target"],
    )
    def test_bad_prediction_line_fails(self, dataset_dir, run_dir, tmp_path, capsys, edit, message):
        captured = explain_edited_predictions(capsys, dataset_dir, run_dir, tmp_path, edit)
        first = (run_dir / "predictions.tsv").read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert captured.err.splitlines() == [f"error: predictions.tsv:2: {message.format(*first)}"]

    def test_unknown_query_label_prints_no_report(self, dataset_dir, run_dir, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        good = (dataset_dir / "query_pairs").read_text(encoding="utf-8")
        queries.write_text(good + good.split("\t")[0] + "\tzzz\n", encoding="utf-8")
        rc = main(["explain", str(dataset_dir), "--pairs", str(queries), "--state", str(run_dir)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: queries.tsv:2: link references unknown target entity 'zzz'"
        ]

    def rejects_ranked_predictions(self, dataset_dir, run_dir, tmp_path, capsys, mode):
        state = tmp_path / "state"
        shutil.copytree(run_dir, state)
        shutil.copy(state / "rankings.tsv", state / "predictions.tsv")
        first = (state / "predictions.tsv").read_text(encoding="utf-8").splitlines()[0]
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(state),
                "--mode",
                mode,
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: predictions.tsv:1: expected 4 non-empty tab-separated fields, got {first!r}"
        ]

    def test_soft_mode_rejects_ranked_predictions(self, dataset_dir, run_dir, tmp_path, capsys):
        self.rejects_ranked_predictions(dataset_dir, run_dir, tmp_path, capsys, "soft")

    def test_hard_mode_rejects_ranked_predictions(self, dataset_dir, run_dir, tmp_path, capsys):
        self.rejects_ranked_predictions(dataset_dir, run_dir, tmp_path, capsys, "hard")

    def test_state_without_dumps_fails(self, dataset_dir, tmp_path, capsys):
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "predictions.tsv" in capsys.readouterr().err

    def test_state_of_a_minimal_run(self, dataset_dir, run_dir, tmp_path, capsys):
        # a run without --full-output writes predictions.tsv, all explain reads
        minimal = tmp_path / "minimal"
        assert run_align(dataset_dir, minimal) == 0
        assert not (minimal / "psub_source_in_target.tsv").exists()
        queries = str(dataset_dir / "query_pairs")
        for mode in ("hard", "soft"):
            reports = []
            for state in (minimal, run_dir):
                capsys.readouterr()
                args = ["explain", str(dataset_dir), "--pairs", queries, "--state", str(state)]
                assert main([*args, "--mode", mode]) == 0
                reports.append(capsys.readouterr().out)
            assert reports[0] == reports[1] and f"mode={mode}" in reports[0]


class TestEval:
    def test_binary_predictions(self, dataset_dir, run_dir, capsys):
        rc = main(
            [
                "eval",
                "--predictions",
                str(run_dir / "predictions.tsv"),
                "--gold",
                str(dataset_dir / "ent_links"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "precision\t" in out
        assert "f1\t" in out

    def test_ranked_predictions(self, dataset_dir, run_dir, capsys):
        rc = main(
            [
                "eval",
                "--predictions",
                str(run_dir / "rankings.tsv"),
                "--gold",
                str(run_dir / "splits" / "test_links"),
                "--ks",
                "1,5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit@1\t" in out
        assert "hit@5\t" in out
        assert "mrr\t" in out


    def test_rank_column_sets_order(self, tmp_path, capsys):
        (tmp_path / "rankings.tsv").write_text("a\t2\tx\na\t1\ty\n", encoding="utf-8")
        (tmp_path / "gold").write_text("a\ty\n", encoding="utf-8")
        args = ["eval", "--predictions", str(tmp_path / "rankings.tsv"), "--gold", str(tmp_path / "gold")]
        assert main([*args, "--ks", "1"]) == 0
        assert "hit@1\t1.000000" in capsys.readouterr().out

    def test_shuffled_rankings_evaluate_the_same(self, run_dir, tmp_path, capsys):
        lines = (run_dir / "rankings.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = tmp_path / "rankings.tsv"
        shuffled.write_text("".join(np.random.default_rng(7).permutation(lines)), encoding="utf-8")
        outputs = []
        for path in (run_dir / "rankings.tsv", shuffled):
            gold = str(run_dir / "splits" / "test_links")
            assert main(["eval", "--predictions", str(path), "--gold", gold, "--ks", "1,3,10"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "hit@1\t" in outputs[0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\t1\tx\na\t0\ty\n", "rankings.tsv:2: rank must be >= 1, got '0'"),
            ("a\t-1\tx\n", "rankings.tsv:1: rank must be >= 1, got '-1'"),
            ("a\t1.5\tx\n", "rankings.tsv:1: expected source<TAB>rank<TAB>target, got 'a\\t1.5\\tx'"),
            ("a\t\u00b2\tx\n", "rankings.tsv:1: expected source<TAB>rank<TAB>target, got 'a\\t\u00b2\\tx'"),
            ("a\t1\tx\nb\t1\tx\n\na\t1\ty\n", "rankings.tsv:4: repeated rank 1 for source 'a'"),
            ("a\t1\tx\nb\t2\tx\na\t3\ty\n\na\t2\tx\n", "rankings.tsv:5: repeated target 'x' for source 'a'"),
        ],
    )
    def test_bad_rank_fails(self, tmp_path, capsys, text, message):
        (tmp_path / "rankings.tsv").write_text(text, encoding="utf-8")
        (tmp_path / "gold").write_text("a\ty\n", encoding="utf-8")
        rc = main(["eval", "--predictions", str(tmp_path / "rankings.tsv"), "--gold", str(tmp_path / "gold")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\tx\t1\tobserved\na\ty\t0.5\tsymbolic\n", "predictions.tsv:2: repeated source entity 'a'"),
            ("a\tx\t1\tobserved\nb\tx\t0.5\tneural\n", "predictions.tsv:2: repeated target entity 'x'"),
            ("a\tx\t1.5\tobserved\n", "predictions.tsv:1: score must be a number in [0, 1], got '1.5'"),
            (
                "a\tx\t1\tseed\n",
                "predictions.tsv:1: unknown origin 'seed', expected observed, symbolic or neural",
            ),
        ],
        ids=["source", "target", "score", "origin"],
    )
    def test_bad_binary_row_fails(self, tmp_path, capsys, text, message):
        # a repeated source would otherwise count both of its targets
        (tmp_path / "predictions.tsv").write_text(text, encoding="utf-8")
        (tmp_path / "gold").write_text("a\ty\n", encoding="utf-8")
        rc = main(["eval", "--predictions", str(tmp_path / "predictions.tsv"), "--gold", str(tmp_path / "gold")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "gold, message",
        [
            ("a\ty\nb\tz\n\na\tx\n", "gold:4: repeated source entity 'a'"),
            ("a\ty\nb\ty\n", "gold:2: repeated target entity 'y'"),
        ],
        ids=["source", "target"],
    )
    @pytest.mark.parametrize("predictions", ["a\t1\ty\n", "a\ty\t1\tobserved\n"], ids=["ranked", "binary"])
    def test_gold_must_be_one_to_one(self, tmp_path, capsys, predictions, gold, message):
        # a repeated gold source would count once when ranked and twice when binary
        (tmp_path / "predictions.tsv").write_text(predictions, encoding="utf-8")
        (tmp_path / "gold").write_text(gold, encoding="utf-8")
        rc = main(["eval", "--predictions", str(tmp_path / "predictions.tsv"), "--gold", str(tmp_path / "gold")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("ks", ["0", "-1", "1,0", "1.5", "x", "1,"])
    def test_bad_ks_fails(self, dataset_dir, run_dir, capsys, ks):
        rc = main(
            [
                "eval",
                "--predictions",
                str(run_dir / "rankings.tsv"),
                "--gold",
                str(run_dir / "splits" / "test_links"),
                f"--ks={ks}",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --ks expects integers >= 1 separated by commas, got {ks!r}"
        ]


class TestSplit:
    def test_writes_three_files(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "splits"
        rc = main(
            [
                "split",
                str(dataset_dir / "ent_links"),
                "--ratios",
                "0.5,0.25",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "train_links\t15" in stdout
        for name, size in (("train_links", 15), ("valid_links", 8), ("test_links", 7)):
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            assert len(lines) == size

    def test_bad_ratios_fail(self, dataset_dir, tmp_path, capsys):
        rc = main(
            [
                "split",
                str(dataset_dir / "ent_links"),
                "--ratios",
                "0.5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "--ratios" in capsys.readouterr().err

    def test_negative_seed_fails(self, dataset_dir, tmp_path, capsys):
        rc = main(["split", str(dataset_dir / "ent_links"), "--seed=-1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not (tmp_path / "x").exists()


def test_readme_lists_every_config_key_once():
    """README's configuration reference has one row per settable key:
    each ``EmConfig`` field but ``neural`` and ``workers``, and
    ``neural.<name>`` for each ``Hyperparams`` field; no row names anything else."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration reference\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip().strip("`") for line in section.splitlines() if line.startswith("| `")]
    keys = [f.name for f in fields(EmConfig) if f.name not in ("neural", "workers")]
    keys += [f"neural.{f.name}" for f in fields(Hyperparams)]
    assert sorted(rows) == sorted(keys)


def suffixed_relation_run(tmp_path, relations: tuple[str, ...]) -> tuple[list[str], str]:
    """``explain --state`` arguments for an ``align --full-output`` run on a
    30-entity ring pair with chords whose relation labels are ``relations``,
    and the run's own hard-mode report of the query."""
    n = 30
    records = [(f"e{i}", relations[i % len(relations)], f"e{(i + 1) % n}") for i in range(n)]
    records += [(f"e{i}", relations[-1], f"e{(7 * i + 3) % n}") for i in range(n)]
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    for name, prime in zip(TRIPLE_FILES, ("", "'")):
        rows = "".join(f"{h}{prime}\t{r}\t{t}{prime}\n" for h, r, t in records)
        (dataset / name).write_text(rows, encoding="utf-8")
    (dataset / LINKS_FILE).write_text("".join(f"e{i}\te{i}'\n" for i in range(n)), encoding="utf-8")
    queries = str(tmp_path / "queries.tsv")
    Path(queries).write_text("e5\te5'\n", encoding="utf-8")
    out = tmp_path / "run"
    align = ["align", str(dataset), "--out", str(out), "--full-output", "--symbolic-only"]
    align += ["--train-ratio", "0.5", "--explain-pairs", queries, "--explain-mode", "hard"]
    assert main(align) == 0
    report = (out / "explanations" / "0001.txt").read_text(encoding="utf-8")
    return ["explain", str(dataset), "--pairs", queries, "--state", str(out), "--mode", "hard"], report


def test_explain_state_reads_label_ending_in_inverse_marker(tmp_path, capsys):
    args, report = suffixed_relation_run(tmp_path, ("likes^-1",))
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out == report
    rules = [line.split("\t")[1:3] for line in out.splitlines()[1:]]
    assert ["likes^-1", "likes^-1"] in rules


def test_explain_state_reads_relation_and_its_inverse_label(tmp_path, capsys):
    # the p_sub dumps write both the inverse of likes and the relation
    # likes^-1 as likes^-1; explain rebuilds p_sub from predictions.tsv
    args, report = suffixed_relation_run(tmp_path, ("likes", "likes^-1"))
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out == report
    assert len(out.splitlines()) > 1 and "(no supporting rules)" not in out


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_explain_state_matches_the_runs_own_reports(tmp_path, capsys, mode):
    """``explain --state`` rebuilds p_sub from predictions.tsv as the run's
    last M-step built it, so it prints the run's ``--explain-pairs`` reports."""
    pair, gold = isomorphic_pair(407, 500, 20, 1500)
    dataset = tmp_path / "dataset"
    oracles.save_dataset(DatasetBundle(pair=pair, links=tuple(sorted(gold.items())), provenance={}), dataset)
    queries = str(dataset / LINKS_FILE)
    out = tmp_path / "run"
    align = ["align", str(dataset), "--out", str(out), "--full-output"]
    assert main([*align, "--explain-pairs", queries, "--explain-mode", mode]) == 0
    capsys.readouterr()
    assert main(["explain", str(dataset), "--pairs", queries, "--state", str(out), "--mode", mode]) == 0
    reports = sorted((out / "explanations").iterdir())
    assert len(reports) == len(gold)
    assert capsys.readouterr().out == "".join(path.read_text(encoding="utf-8") for path in reports)
