"""Tests for dataset I/O, splitting, and run artifacts."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from kgalign.data import (
    LINKS_FILE,
    TRIPLE_FILES,
    DatasetError,
    build_manifest,
    emit_report,
    format_links,
    format_predictions,
    format_rankings,
    load_dataset,
    load_gold_links,
    load_label_pairs,
    load_prediction_file,
    read_config_file,
    read_predictions,
    split_seed,
)
from kgalign.em import EmConfig, IterationStats
from kgalign.embedder import Origin
from kgalign.graph import KnowledgeGraphPair, load_graph

import oracles

# Labels with spaces, non-ASCII text and characters that str.splitlines()
# would take for line ends; the pool serves as entities and relations alike.
LABELS = ("a", "b c", " lead", "trail ", "é", "日本語", "😀", "x\u2028y", "f\x0cg", "h\x85i", "1")
ENDINGS = ("\n", "\r\n", "\r")
TRIPLE_FAULTS = ("a\tb", "a\tr\tb\tc", "\tr\tb", "a\t\tb", "a\tr\t", "\t", "\t\t", " ", "  \t ", "a")
LINK_FAULTS = ("a", "a\tb\tc", "\tb", "a\t", "\t", "\t\t", " ")


def write_dataset(root, triples_1=None, triples_2=None, links=None):
    triples_1 = triples_1 if triples_1 is not None else [("a", "r", "b"), ("b", "r", "c")]
    triples_2 = triples_2 if triples_2 is not None else [("a'", "r'", "b'"), ("b'", "r'", "c'")]
    links = links if links is not None else [("a", "a'"), ("b", "b'"), ("c", "c'")]
    root.mkdir(parents=True, exist_ok=True)
    (root / "rel_triples_1").write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples_1), encoding="utf-8"
    )
    (root / "rel_triples_2").write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples_2), encoding="utf-8"
    )
    (root / "ent_links").write_text(
        "".join(f"{s}\t{t}\n" for s, t in links), encoding="utf-8"
    )
    return root


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        bundle = load_dataset(write_dataset(tmp_path / "ds"))
        assert bundle.pair.source.n_entities == 3
        assert bundle.pair.target.n_entities == 3
        assert len(bundle.links) == 3
        assert set(bundle.provenance) == {"rel_triples_1", "rel_triples_2", "ent_links"}
        for digest in bundle.provenance.values():
            assert len(digest) == 64

    def test_missing_file(self, tmp_path):
        root = write_dataset(tmp_path / "ds")
        (root / "ent_links").unlink()
        with pytest.raises(DatasetError, match="missing dataset file"):
            load_dataset(root)

    def test_malformed_triple_names_line(self, tmp_path):
        root = write_dataset(tmp_path / "ds")
        (root / "rel_triples_1").write_text("a\tr\tb\nbroken line\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="rel_triples_1:2"):
            load_dataset(root)

    def test_malformed_link_names_line(self, tmp_path):
        root = write_dataset(tmp_path / "ds")
        (root / "ent_links").write_text("a\ta'\nno_tab_here\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="ent_links:2"):
            load_dataset(root)

    def test_dangling_source_entity(self, tmp_path):
        root = write_dataset(tmp_path / "ds", links=[("a", "a'"), ("ghost", "b'")])
        with pytest.raises(DatasetError, match="ent_links:2.*ghost"):
            load_dataset(root)

    def test_dangling_target_entity(self, tmp_path):
        root = write_dataset(tmp_path / "ds", links=[("a", "phantom'")])
        with pytest.raises(DatasetError, match="ent_links:1.*phantom"):
            load_dataset(root)

    @pytest.mark.parametrize("ending", ENDINGS)
    def test_invalid_utf8_names_line(self, tmp_path, ending):
        root = write_dataset(tmp_path / "ds")
        lines = [b"a'\tr'\tb'", b"", "\u00e9\tr'\tc'".encode("utf-8"), b"b'\tr'\t\xff"]
        (root / "rel_triples_2").write_bytes(ending.encode("ascii").join(lines))
        with pytest.raises(DatasetError, match=r"^rel_triples_2:4: not valid UTF-8: byte 0xff"):
            load_dataset(root)

    def test_blank_lines_skipped(self, tmp_path):
        root = write_dataset(tmp_path / "ds")
        (root / "ent_links").write_text("a\ta'\n\nb\tb'\n", encoding="utf-8")
        bundle = load_dataset(root)
        assert len(bundle.links) == 2

    def test_round_trip(self, tmp_path):
        bundle = load_dataset(write_dataset(tmp_path / "ds"))
        oracles.save_dataset(bundle, tmp_path / "copy")
        again = load_dataset(tmp_path / "copy")
        assert again.pair.source.entity_labels == bundle.pair.source.entity_labels
        assert oracles.triple_tuples(again.pair.target) == oracles.triple_tuples(bundle.pair.target)
        assert again.links == bundle.links


def write_lines(path, lines, rng) -> None:
    """``lines`` with random line endings and empty lines; the last ending is optional."""
    parts = []
    for line in lines:
        while rng.random() < 0.15:
            parts.append(ENDINGS[rng.integers(3)])
        parts += [line, ENDINGS[rng.integers(3)]]
    if parts and rng.random() < 0.3:
        parts.pop()
    path.write_bytes("".join(parts).encode("utf-8"))


def random_records(rng, prefix: str, n: int) -> list[tuple[str, str, str]]:
    """Triples over shared labels, with self loops and repeated triples."""
    pool = LABELS + tuple(f"{prefix}{i}" for i in range(6))
    records: list[tuple[str, str, str]] = []
    for _ in range(n):
        if records and rng.random() < 0.2:
            records.append(records[rng.integers(len(records))])
            continue
        h, r, t = (pool[i] for i in rng.integers(len(pool), size=3))
        records.append((h, r, h) if rng.random() < 0.1 else (h, r, t))
    return records


def random_dataset(rng, root, faults: int = 0):
    """A dataset written with :func:`write_lines`, with ``faults`` malformed or
    unknown-entity lines inserted into randomly chosen files."""
    root.mkdir(parents=True, exist_ok=True)
    sides = [random_records(rng, p, int(rng.integers(0, 25))) for p in ("s", "t")]
    entities = [sorted({e for h, _, t in side for e in (h, t)}) for side in sides]
    files = {name: ["\t".join(rec) for rec in side] for name, side in zip(TRIPLE_FILES, sides)}
    files[LINKS_FILE] = []
    if all(entities):
        for _ in range(int(rng.integers(0, 10))):
            s, t = (side[rng.integers(len(side))] for side in entities)
            files[LINKS_FILE].append(f"{s}\t{t}")
    known = [side[0] if side else "none" for side in entities]
    unknown = (f"ghost\t{known[1]}", f"{known[0]}\tghost")
    for _ in range(faults):
        name = (*TRIPLE_FILES, LINKS_FILE)[rng.integers(3)]
        pool = LINK_FAULTS + unknown if name == LINKS_FILE else TRIPLE_FAULTS
        lines = files[name]
        lines.insert(int(rng.integers(len(lines) + 1)), pool[rng.integers(len(pool))])
    for name, lines in files.items():
        write_lines(root / name, lines, rng)
    return root


def error_of(load, root) -> str:
    with pytest.raises(DatasetError) as caught:
        load(root)
    return str(caught.value)


class TestIngestMatchesLoop:
    """The bulk loader against the line-by-line one in ``oracles.loop_load_dataset``."""

    def test_graphs_and_links_equal(self, rng, tmp_path):
        for trial in range(60):
            root = random_dataset(rng, tmp_path / str(trial))
            bundle = load_dataset(root)
            *graphs, links = oracles.loop_load_dataset(root)
            for kg, ref in zip((bundle.pair.source, bundle.pair.target), graphs):
                assert kg.entity_labels == ref.entity_labels
                assert kg.relation_labels == ref.relation_labels
                assert oracles.triple_tuples(kg) == ref.triples
                for got, want in (
                    *zip(kg.triple_columns, ref.triple_columns),
                    *zip(kg.directed_adj, ref.directed_adj),
                    *zip(kg.edge_index, ref.edge_index),
                ):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
            assert bundle.links == links

    def test_random_faults_same_message(self, rng, tmp_path):
        for trial in range(80):
            root = random_dataset(rng, tmp_path / str(trial), faults=int(rng.integers(1, 3)))
            assert error_of(load_dataset, root) == error_of(oracles.loop_load_dataset, root)

    @pytest.mark.parametrize("name", TRIPLE_FILES)
    @pytest.mark.parametrize("fault", TRIPLE_FAULTS)
    def test_triple_fault(self, tmp_path, name, fault):
        root = write_dataset(tmp_path / "ds")
        path = root / name
        # Lines 1-2 are empty, 3-4 hold triples, 5 is empty after a lone CR.
        path.write_bytes(f"\n\r\n{path.read_text(encoding='utf-8')}\r{fault}\nx\ty\tz\n".encode())
        message = error_of(load_dataset, root)
        assert message == error_of(oracles.loop_load_dataset, root)
        assert message == f"{name}:6: expected 3 non-empty tab-separated fields, got {fault!r}"

    @pytest.mark.parametrize(
        "fault, message",
        [
            *((f, f"expected 2 non-empty tab-separated fields, got {f!r}") for f in LINK_FAULTS),
            ("ghost\tb'", "link references unknown source entity 'ghost'"),
            ("a\tghost", "link references unknown target entity 'ghost'"),
        ],
    )
    def test_link_fault(self, tmp_path, fault, message):
        root = write_dataset(tmp_path / "ds")
        (root / LINKS_FILE).write_bytes(f"a\ta'\r\n\r\n\n\r{fault}\r\nb\tb'".encode())
        assert error_of(load_dataset, root) == f"{LINKS_FILE}:5: {message}"
        assert error_of(oracles.loop_load_dataset, root) == f"{LINKS_FILE}:5: {message}"

    @pytest.mark.parametrize(
        "lines, line",
        [
            (["ghost\tb'", "", "a\t"], 1),  # an unknown entity before a malformed line
            (["", "a\t", "ghost\tb'"], 2),  # and after one
        ],
    )
    def test_first_link_fault_wins(self, tmp_path, lines, line):
        root = write_dataset(tmp_path / "ds")
        (root / LINKS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = error_of(load_dataset, root)
        assert message == error_of(oracles.loop_load_dataset, root)
        assert message.startswith(f"{LINKS_FILE}:{line}: ")


class TestSplitSeed:
    def test_benchmark_sizes(self):
        links = [(i, i) for i in range(15000)]
        train, valid, test = split_seed(links, 0.2, 0.1, seed=0)
        assert (len(train), len(valid), len(test)) == (3000, 1500, 10500)

    def test_one_percent_train(self):
        links = [(i, i) for i in range(15000)]
        train, valid, test = split_seed(links, 0.01, 0.005, seed=0)
        assert len(train) == 150
        assert len(valid) == 75
        assert len(test) == 14775

    def test_partition_is_exact(self):
        links = [(i, 2 * i) for i in range(100)]
        train, valid, test = split_seed(links, 0.3, 0.2, seed=7)
        combined = set(train.pairs) | set(valid.pairs) | set(test.pairs)
        assert combined == set(links)
        assert len(train) + len(valid) + len(test) == 100

    def test_same_seed_identical(self):
        links = [(i, i) for i in range(200)]
        a = split_seed(links, 0.2, 0.1, seed=3)
        b = split_seed(links, 0.2, 0.1, seed=3)
        assert all(x.pairs == y.pairs for x, y in zip(a, b))

    def test_different_seed_differs(self):
        links = [(i, i) for i in range(200)]
        a = split_seed(links, 0.2, 0.1, seed=3)
        b = split_seed(links, 0.2, 0.1, seed=4)
        assert any(x.pairs != y.pairs for x, y in zip(a, b))

    def test_empty_train_rejected(self):
        with pytest.raises(DatasetError, match="empty train"):
            split_seed([(i, i) for i in range(10)], 0.01, 0.0, seed=0)

    def test_ratio_sum_rejected(self):
        with pytest.raises(DatasetError, match="at most 1"):
            split_seed([(i, i) for i in range(10)], 0.8, 0.4, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="seed must be >= 0, got -1"):
            split_seed([(i, i) for i in range(10)], 0.5, 0.1, seed=-1)

    def test_nonpositive_train_rejected(self):
        with pytest.raises(DatasetError, match="train ratio"):
            split_seed([(0, 0)], 0.0, 0.0, seed=0)

    @pytest.mark.parametrize("train_ratio, valid_ratio", [(float("nan"), 0.1), (0.2, float("nan"))])
    def test_nan_ratio_rejected(self, train_ratio, valid_ratio):
        with pytest.raises(DatasetError, match="train ratio must be positive"):
            split_seed([(i, i) for i in range(10)], train_ratio, valid_ratio, seed=0)


class TestFormatters:
    def test_predictions_lines(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("x", "s", "y")])
        text = format_predictions(
            [(0, 0, 1.0, Origin.OBSERVED), (1, 1, 0.875, Origin.SYMBOLIC)], src, tgt
        )
        assert text == "a\tx\t1.000000\tobserved\nb\ty\t0.875000\tsymbolic\n"

    def test_rankings_lines(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("x", "s", "y")])
        text = format_rankings({1: [1, 0], 0: [0]}, src, tgt)
        assert text == "a\t1\tx\nb\t1\ty\nb\t2\tx\n"

    def test_links_lines(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("x", "s", "y")])
        assert format_links([(0, 1)], src, tgt) == "a\ty\n"

    def test_empty_outputs(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("x", "s", "y")])
        assert format_predictions([], src, tgt) == ""
        assert format_rankings({}, src, tgt) == ""


class TestReadPredictions:
    pair = KnowledgeGraphPair(
        source=load_graph([("a", "r", "b"), ("b", "r", "c")]),
        target=load_graph([("x", "s", "y"), ("y", "s", "z")]),
    )
    binary = [(0, 0, 1.0, Origin.OBSERVED), (2, 1, 0.5, Origin.SYMBOLIC), (1, 2, 0.25, Origin.NEURAL)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        text = format_predictions(self.binary, self.pair.source, self.pair.target)
        path.write_text(text, encoding="utf-8")
        src, tgt, score, origin = read_predictions(path, self.pair)
        assert (src.dtype, tgt.dtype, score.dtype) == (np.int64, np.int64, np.float64)
        assert list(zip(src.tolist(), tgt.tolist(), score.tolist(), origin)) == self.binary

    def test_empty_file(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("", encoding="utf-8")
        src, tgt, score, origin = read_predictions(path, self.pair)
        assert (len(src), len(tgt), len(score), origin) == (0, 0, 0, ())
        assert src.dtype == tgt.dtype == np.int64

    @pytest.mark.parametrize(
        "lines, message",
        [
            # each kind of fault, then one after an earlier fault of another kind
            (["a\tq\t1\tobserved", "b\ty\t2\tsymbolic"], "1: link references unknown target entity 'q'"),
            (["a\tx\t2\tobserved", "q\ty\t1\tsymbolic"], "1: score must be a number in [0, 1], got '2'"),
            (
                ["a\tx\t1\tseed", "b\tx\t1\tsymbolic"],
                "1: unknown origin 'seed', expected observed, symbolic or neural",
            ),
            (["a\tx\t1\tobserved", "a\ty\t1\tobserved", "q"], "2: repeated source entity 'a'"),
            (["a\tx\t1\tobserved", "b\tx\t1\tobserved", "\t"], "2: repeated target entity 'x'"),
            (
                ["a\tx\t1\tobserved", "", "b\ty\t0.5"],
                "3: expected 4 non-empty tab-separated fields, got 'b\\ty\\t0.5'",
            ),
        ],
        ids=["label", "score", "origin", "source", "target", "width"],
    )
    def test_first_fault_names_its_line(self, tmp_path, lines, message):
        path = tmp_path / "predictions.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert error_of(lambda p: read_predictions(p, self.pair), path) == f"predictions.tsv:{message}"


class TestManifest:
    def test_core_fields(self):
        config = EmConfig(delta=0.8, iterations=2)
        history = [
            IterationStats(iteration=1, inferred_pairs=5, neural_loss=0.25, validation_precision=None),
            IterationStats(iteration=2, inferred_pairs=9, neural_loss=None, validation_precision=1.0),
        ]
        text = build_manifest(config, {"ent_links": "ab" * 32}, history)
        assert text.startswith("format_version\t1\n")
        assert "config.delta\t0.8\n" in text
        assert "config.neural.dim\t64\n" in text
        assert f"input.ent_links\tsha256:{'ab' * 32}\n" in text
        assert "iteration\t1\t5\t0.250000\t-\n" in text
        assert "iteration\t2\t9\t-\t1.000000\n" in text

    def test_every_config_field_recorded(self):
        config = EmConfig(rank_depth=7)
        text = build_manifest(config, {}, [])
        for f in dataclasses.fields(EmConfig):
            if f.name not in ("neural", "workers"):
                assert f"config.{f.name}\t{getattr(config, f.name)}\n" in text
        assert "config.rank_depth\t7\n" in text

    def test_extra_entries_sorted_in(self):
        text = build_manifest(EmConfig(), {}, [], extra={"train_ratio": 0.2})
        assert "config.train_ratio\t0.2\n" in text


class TestEmitReport:
    def test_minimal_run_is_three_files(self, tmp_path):
        out = emit_report(tmp_path / "run", "m\n", "p\n", "x\n")
        names = sorted(f.name for f in out.iterdir())
        assert names == ["manifest.txt", "metrics.tsv", "predictions.tsv"]
        assert (out / "manifest.txt").read_text() == "m\n"

    def test_extras_and_nested_paths(self, tmp_path):
        out = emit_report(
            tmp_path / "run",
            "m\n",
            "p\n",
            "x\n",
            extras={"splits/train_links": "a\tb\n", "explanations/0001.txt": "q\n"},
        )
        assert (out / "splits" / "train_links").read_text() == "a\tb\n"
        assert (out / "explanations" / "0001.txt").read_text() == "q\n"


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\ndelta = 0.8\n\nneural.dim=32\n", encoding="utf-8")
        assert read_config_file(path) == {"delta": "0.8", "neural.dim": "32"}

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("delta=0.8\nnot a pair\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="run.conf:2"):
            read_config_file(path)

    @pytest.mark.parametrize("ending", ENDINGS)
    def test_invalid_utf8_names_line(self, tmp_path, ending):
        # the first line is longer than one read chunk of the text layer
        path = tmp_path / "run.conf"
        lines = [("# " + "\u00e9" * 6000).encode("utf-8"), b"delta=0.8", b"seed=\xff1"]
        path.write_bytes(ending.encode("ascii").join(lines))
        with pytest.raises(DatasetError, match=r"^run.conf:3: not valid UTF-8: byte 0xff"):
            read_config_file(path)


class TestPredictionFiles:
    def test_binary_detected(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("a\tx\t1.000000\tobserved\nb\ty\t0.9\tsymbolic\n", encoding="utf-8")
        rankings, pairs = load_prediction_file(path)
        assert rankings is None
        assert pairs == [("a", "x"), ("b", "y")]

    def test_rankings_detected(self, tmp_path):
        path = tmp_path / "rankings.tsv"
        path.write_text("a\t1\tx\na\t2\ty\nb\t1\ty\n", encoding="utf-8")
        rankings, pairs = load_prediction_file(path)
        assert pairs is None
        assert rankings == {"a": ["x", "y"], "b": ["y"]}

    def test_rank_column_sets_order(self, tmp_path):
        path = tmp_path / "rankings.tsv"
        path.write_text("a\t2\tx\nb\t5\ty\na\t1\ty\na\t3\tz\n", encoding="utf-8")
        assert load_prediction_file(path) == ({"a": ["y", "x", "z"], "b": ["y"]}, None)

    def test_bad_rank_column(self, tmp_path):
        path = tmp_path / "rankings.tsv"
        path.write_text("a\tfirst\tx\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="rankings.tsv:1"):
            load_prediction_file(path)

    def test_error_names_physical_line(self, tmp_path):
        path = tmp_path / "rankings.tsv"
        path.write_text("a\t1\tx\n\nb\tq\ty\n", encoding="utf-8")
        assert error_of(load_prediction_file, path) == (
            "rankings.tsv:3: expected source<TAB>rank<TAB>target, got 'b\\tq\\ty'"
        )
        path = tmp_path / "predictions.tsv"
        path.write_text("a\tx\t1.0\tobserved\r\n\r\nb\ty\t0.5\r\n", encoding="utf-8")
        assert error_of(load_prediction_file, path) == (
            "predictions.tsv:3: expected 4 non-empty tab-separated fields, got 'b\\ty\\t0.5'"
        )

    def test_whitespace_only_line_rejected(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("a\tx\t1.0\tobserved\n \nb\ty\t0.5\tsymbolic\n", encoding="utf-8")
        assert error_of(load_prediction_file, path) == (
            "predictions.tsv:2: expected 4 non-empty tab-separated fields, got ' '"
        )

    def test_line_endings_and_blank_lines(self, tmp_path):
        path = tmp_path / "rankings.tsv"
        path.write_bytes(b"\r\na\t1\tx\r\n\ra\t2\ty\rb\t1\tx")
        assert load_prediction_file(path) == ({"a": ["x", "y"], "b": ["x"]}, None)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("\n\n", encoding="utf-8")
        assert load_prediction_file(path) == (None, [])

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["a\tx\t2\tobserved", "q"], "1: score must be a number in [0, 1], got '2'"),
            (["a\tx\tnan\tobserved"], "1: score must be a number in [0, 1], got 'nan'"),
            (
                ["a\tx\t1\tobserved", "b\ty\t1\tseed"],
                "2: unknown origin 'seed', expected observed, symbolic or neural",
            ),
            (["a\tx\t1\tobserved", "", "a\ty\t1\tobserved", "q"], "3: repeated source entity 'a'"),
            (["a\tx\t1\tobserved", "b\tx\t1\tobserved"], "2: repeated target entity 'x'"),
        ],
        ids=["score", "nan", "origin", "source", "target"],
    )
    def test_binary_rows_checked_as_read_predictions(self, tmp_path, lines, message):
        # the same checks and messages as read_predictions, without the graphs
        path = tmp_path / "predictions.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert error_of(load_prediction_file, path) == f"predictions.tsv:{message}"

    def test_unknown_width(self, tmp_path):
        path = tmp_path / "odd.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="unrecognized prediction format"):
            load_prediction_file(path)

    def test_label_pairs(self, tmp_path):
        path = tmp_path / "links"
        path.write_text("a\tx\nb\ty\n", encoding="utf-8")
        assert load_label_pairs(path) == [("a", "x"), ("b", "y")]
        assert load_gold_links(path) == [("a", "x"), ("b", "y")]

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["a\tx", "a\ty", "q"], "2: repeated source entity 'a'"),
            (["a\tx", "", "b\tx"], "3: repeated target entity 'x'"),
            (["a\tx", "q", "a\ty"], "2: expected 2 non-empty tab-separated fields, got 'q'"),
        ],
        ids=["source", "target", "width"],
    )
    def test_gold_links_first_fault_names_its_line(self, tmp_path, lines, message):
        path = tmp_path / "gold"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert error_of(load_gold_links, path) == f"gold:{message}"
