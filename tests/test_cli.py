"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from kgalign import embedder
from kgalign.cli import _psub_from_dump, main
from kgalign.data import LINKS_FILE, TRIPLE_FILES, DatasetBundle, DatasetError
from kgalign.em import EmConfig
from kgalign.embedder import Hyperparams
from kgalign.graph import load_graph, pack_direction

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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("psub_source_in_target.tsv", "7.0"),
            ("psub_target_in_source.tsv", "-0.5"),
            ("psub_target_in_source.tsv", "nan"),
            ("psub_source_in_target.tsv", "inf"),
            ("psub_source_in_target.tsv", "abc"),
        ],
    )
    def test_bad_psub_value_fails(self, dataset_dir, run_dir, tmp_path, capsys, name, value):
        state = tmp_path / "state"
        shutil.copytree(run_dir, state)
        lines = (state / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2
        a, b, _ = lines[1].split("\t")
        lines[1] = f"{a}\t{b}\t{value}"
        (state / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(
            [
                "explain",
                str(dataset_dir),
                "--pairs",
                str(dataset_dir / "query_pairs"),
                "--state",
                str(state),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {name}:2: p_sub must be a number in [0, 1], got {value!r}"
        ]

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

    def test_soft_mode_rejects_ranked_predictions(self, dataset_dir, run_dir, tmp_path, capsys):
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
                "soft",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: predictions.tsv:1: expected 4 non-empty tab-separated fields, got {first!r}"
        ]

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
        assert "--full-output" in capsys.readouterr().err


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


DUMP_FAULTS = (
    "r\tr'\t7.0",
    "r\tr'\tabc",
    "r\tr'\tnan",
    "r\tr'",
    "r\t\t0.5",
    "\t",
    " ",
    "q\tr'\t0.5",
    "r\tq'\t0.5",
    "t^-1\tr'\t0.5",  # both the relation t^-1 and the inverse of t
)


class TestPsubDump:
    """``explain --state`` p_sub dumps against the line-by-line ``oracles.loop_psub_from_dump``."""

    left = load_graph(
        [("a", "r", "b"), ("b", "s", "c"), ("c", "t", "a"), ("a", "t^-1", "b"), ("b", "u^-1", "a")]
    )
    right = load_graph([("x", "r'", "y")])
    good = ("r\tr'\t0.5", "s^-1\tr'^-1\t1", "", "r^-1\tr'\t0")

    def read_both(self, path):
        results = []
        for read in (_psub_from_dump, oracles.loop_psub_from_dump):
            try:
                results.append(read(path, self.left, self.right))
            except DatasetError as exc:
                results.append(str(exc))
        return results

    def test_valid_dump_equal(self, tmp_path):
        path = tmp_path / "psub_source_in_target.tsv"
        path.write_text("\r\n".join(self.good), encoding="utf-8")
        weights, reference = self.read_both(path)
        assert np.array_equal(weights, reference)
        assert weights[pack_direction(1, True), pack_direction(0, True)] == 1.0

    def test_labels_ending_in_inverse_marker(self, tmp_path):
        path = tmp_path / "psub_source_in_target.tsv"
        path.write_text("t^-1^-1\tr'\t0.5\nu^-1\tr'^-1\t1\n", encoding="utf-8")
        weights, reference = self.read_both(path)
        assert np.array_equal(weights, reference)
        # relation 3 is t^-1 and relation 4 is u^-1; no relation u exists
        assert weights[pack_direction(3, True), pack_direction(0, False)] == 0.5
        assert weights[pack_direction(4, False), pack_direction(0, True)] == 1.0

    @pytest.mark.parametrize("fault", DUMP_FAULTS)
    def test_fault_same_message(self, tmp_path, fault):
        path = tmp_path / "psub_source_in_target.tsv"
        path.write_text("\n".join([*self.good, fault, "r\tr'\t0.25"]) + "\n", encoding="utf-8")
        message, reference = self.read_both(path)
        assert isinstance(message, str) and message == reference
        assert message.startswith(f"{path.name}:5: ")

    @pytest.mark.parametrize("first, second", [("r\tr'\t2", "r\tr'"), ("r\tr'", "r\tr'\t2")])
    def test_first_fault_wins(self, tmp_path, first, second):
        path = tmp_path / "psub_target_in_source.tsv"
        path.write_text("\n".join([first, "", second]), encoding="utf-8")
        message, reference = self.read_both(path)
        assert message == reference and message.startswith(f"{path.name}:1: ")


def suffixed_relation_run(tmp_path, relations: tuple[str, ...]) -> list[str]:
    """``explain --state`` arguments for an ``align --full-output`` run on a
    30-entity ring pair with chords whose relation labels are ``relations``."""
    n = 30
    records = [(f"e{i}", relations[i % len(relations)], f"e{(i + 1) % n}") for i in range(n)]
    records += [(f"e{i}", relations[-1], f"e{(7 * i + 3) % n}") for i in range(n)]
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    for name, prime in zip(TRIPLE_FILES, ("", "'")):
        rows = "".join(f"{h}{prime}\t{r}\t{t}{prime}\n" for h, r, t in records)
        (dataset / name).write_text(rows, encoding="utf-8")
    (dataset / LINKS_FILE).write_text("".join(f"e{i}\te{i}'\n" for i in range(n)), encoding="utf-8")
    (tmp_path / "queries.tsv").write_text("e5\te5'\n", encoding="utf-8")
    out = tmp_path / "run"
    align = ["align", str(dataset), "--out", str(out), "--full-output", "--symbolic-only"]
    assert main([*align, "--train-ratio", "0.5"]) == 0
    return ["explain", str(dataset), "--pairs", str(tmp_path / "queries.tsv"), "--state", str(out)]


def test_explain_state_reads_label_ending_in_inverse_marker(tmp_path, capsys):
    args = suffixed_relation_run(tmp_path, ("likes^-1",))
    capsys.readouterr()
    assert main([*args, "--mode", "hard"]) == 0
    rules = [line.split("\t")[1:3] for line in capsys.readouterr().out.splitlines()[1:]]
    assert ["likes^-1", "likes^-1"] in rules


def test_explain_state_rejects_ambiguous_label(tmp_path, capsys):
    args = suffixed_relation_run(tmp_path, ("likes", "likes^-1"))
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert re.fullmatch(
        r"error: psub_source_in_target\.tsv:\d+: ambiguous relation label 'likes\^-1': .+", line
    )
