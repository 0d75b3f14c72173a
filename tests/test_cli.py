"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from kgalign.cli import _coerce, _psub_from_dump, main
from kgalign.data import DatasetBundle, DatasetError, save_dataset
from kgalign.em import EmConfig
from kgalign.graph import load_graph, pack_direction

import oracles
from conftest import isomorphic_pair


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    pair, gold = isomorphic_pair(31, n_entities=30, n_relations=3, n_triples=80)
    root = tmp_path_factory.mktemp("dataset")
    bundle = DatasetBundle(pair=pair, links=tuple(sorted(gold.items())), provenance={})
    save_dataset(bundle, root)
    (root / "run.conf").write_text(
        "# fast settings for tests\nneural.epochs=10\nneural.dim=8\nneural.negatives=2\n",
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
            "model.npz",
        ):
            assert (out / name).is_file()
        for name in ("train_links", "valid_links", "test_links"):
            assert (out / "splits" / name).is_file()
        assert (out / "explanations" / "0001.txt").is_file()
        report = (out / "explanations" / "0001.txt").read_text(encoding="utf-8")
        assert report.startswith("query\t")

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
            "neural.learning_rate=-1",
            "neural.margin=0",
            "neural.triple_weight=-0.5",
            "hidden_weight=-1",
            "confidence_floor=7",
            "rank_depth=0",
            "pseudo_budget=-1",
            "pseudo_budget=ten",
            "iterations=None",
            "workers=2",
            "neural.learning_rate=nan",
            "neural.learning_rate=inf",
            "neural.margin=inf",
            "neural.triple_weight=nan",
            "hidden_weight=inf",
            "hidden_weight=nan",
            "train_ratio=nan",
            "train_ratio=abc",
            "valid_ratio=inf",
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

    def test_optional_config_value_typed(self, dataset_dir, tmp_path):
        conf = tmp_path / "budget.conf"
        base = (dataset_dir / "run.conf").read_text(encoding="utf-8")
        conf.write_text(base + "pseudo_budget=10\n", encoding="utf-8")
        rc = main(
            ["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--iterations", "1",
             "--config", str(conf)]
        )
        assert rc == 0

    def test_optional_config_value_none(self, dataset_dir, tmp_path):
        # The manifest writes an unset optional field as None; a config file can say so too.
        conf = tmp_path / "budget.conf"
        base = (dataset_dir / "run.conf").read_text(encoding="utf-8")
        conf.write_text(base + "pseudo_budget=None\n", encoding="utf-8")
        rc = main(
            ["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--iterations", "1",
             "--config", str(conf)]
        )
        assert rc == 0
        manifest = (tmp_path / "x" / "manifest.txt").read_text(encoding="utf-8")
        assert "config.pseudo_budget\tNone\n" in manifest
        assert _coerce("pseudo_budget", "None", EmConfig) is None

    def test_bad_delta_fails(self, dataset_dir, tmp_path, capsys):
        rc = main(
            ["align", str(dataset_dir), "--out", str(tmp_path / "x"), "--delta", "1.5"]
        )
        assert rc == 2
        assert "delta" in capsys.readouterr().err


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
)


class TestPsubDump:
    """``explain --state`` p_sub dumps against the line-by-line ``oracles.loop_psub_from_dump``."""

    left = load_graph([("a", "r", "b"), ("b", "s", "c")])
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
