"""Dataset loading, seed splitting, and run-artifact emission.

Directory layout follows the usual two-KG benchmark convention: a
dataset directory holds ``rel_triples_1`` and ``rel_triples_2`` (one
``head<TAB>relation<TAB>tail`` per line) plus ``ent_links``
(``source<TAB>target``).  Everything is UTF-8 and tab-separated, and
every parse error is reported with its file and line number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .em import EmConfig, IterationStats
from .embedder import Origin
from .graph import (
    AlignmentSeed,
    IngestError,
    KnowledgeGraph,
    KnowledgeGraphPair,
    load_graph,
    validate_seed_sets,
)

FORMAT_VERSION = 1

TRIPLE_FILES = ("rel_triples_1", "rel_triples_2")
LINKS_FILE = "ent_links"
# The origin column of a predictions file, by value.
_ORIGINS = {o.value: o for o in Origin}

T = TypeVar("T")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetBundle:
    pair: KnowledgeGraphPair
    links: tuple[tuple[int, int], ...]
    provenance: dict[str, str]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class TsvRows:
    """The non-empty lines of a TSV file, split into ``columns`` of fields."""

    name: str
    columns: tuple[list[str], ...]
    lines: list[str]  # every physical line, to name one in an error

    def where(self, row: int) -> str:
        """``file:line`` of the ``row``-th non-empty line, for an error message."""
        numbers = (i for i, line in enumerate(self.lines, start=1) if line)
        return f"{self.name}:{next(islice(numbers, row, None))}"


def _decode_error(path: Path) -> DatasetError:
    """The error for a file that is not valid UTF-8, naming the line of its
    first bad byte; line ends are counted as universal newlines read them."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        byte = raw[exc.start]
        return DatasetError(f"{path.name}:{line}: not valid UTF-8: byte {byte:#04x}, {exc.reason}")
    return DatasetError(f"{path.name}: not valid UTF-8")


def read_tsv(
    path: Path, n_fields: int | None, parse: Callable[[TsvRows], T] = lambda rows: rows
) -> T:
    """Read a TSV file in one pass and return ``parse`` of its rows.

    Lines end as in Python's universal newlines (``\\n``, ``\\r\\n`` or a
    lone ``\\r``); only empty lines are blank.  Every other line must hold
    ``n_fields`` non-empty tab-separated fields (with ``None``, as many as
    the first one), or the read fails naming ``file:line``.  ``parse`` sees
    the rows before such a line first, so that a fault it finds on an
    earlier line is the one reported, as in a line-by-line read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    rows = list(filter(None, lines))
    if n_fields is None:
        n_fields = rows[0].count("\t") + 1 if rows else 0
    fields = "\t".join(rows).split("\t") if rows else []
    if set(map(str.count, rows, repeat("\t"))) <= {n_fields - 1} and all(fields):
        return parse(TsvRows(path.name, tuple(fields[i::n_fields] for i in range(n_fields)), lines))
    bad = next(
        i
        for i, row in enumerate(rows)
        if row.count("\t") != n_fields - 1 or not all(row.split("\t"))
    )
    end = bad * n_fields  # the rows before ``bad`` hold n_fields fields each
    before = TsvRows(path.name, tuple(fields[i:end:n_fields] for i in range(n_fields)), lines)
    parse(before)
    raise DatasetError(
        f"{before.where(bad)}: expected {n_fields} non-empty tab-separated fields, got {rows[bad]!r}"
    )


def _link_ids(rows: TsvRows, pair: KnowledgeGraphPair) -> tuple[tuple[int, int], ...]:
    src_labels, tgt_labels = rows.columns[:2]
    src = list(map(pair.source.entity_ids.get, src_labels))
    tgt = list(map(pair.target.entity_ids.get, tgt_labels))
    if None in src or None in tgt:
        row = next(i for i, ids in enumerate(zip(src, tgt)) if None in ids)
        side, label = ("source", src_labels[row]) if src[row] is None else ("target", tgt_labels[row])
        raise DatasetError(f"{rows.where(row)}: link references unknown {side} entity {label!r}")
    return tuple(zip(src, tgt))


def load_links(path: str | Path, pair: KnowledgeGraphPair) -> tuple[tuple[int, int], ...]:
    """The (source, target) entity ids named by each line of a
    ``source<TAB>target`` file, in file order; a label that is not an
    entity of its graph is reported as ``file:line``."""
    return read_tsv(Path(path), 2, lambda rows: _link_ids(rows, pair))


def load_dataset(directory: str | Path) -> DatasetBundle:
    """Read and cross-check the triple files and the alignment links."""
    root = Path(directory)
    for name in (*TRIPLE_FILES, LINKS_FILE):
        if not (root / name).is_file():
            raise DatasetError(f"missing dataset file: {root / name}")

    graphs = []
    for name in TRIPLE_FILES:
        try:
            # Nothing else holds the fields, so they are freed once interned.
            graphs.append(load_graph(zip(*read_tsv(root / name, 3).columns)))
        except IngestError as exc:
            raise DatasetError(f"{name}: {exc}") from exc
    pair = KnowledgeGraphPair(source=graphs[0], target=graphs[1])
    links = load_links(root / LINKS_FILE, pair)

    provenance = {name: _sha256(root / name) for name in (*TRIPLE_FILES, LINKS_FILE)}
    return DatasetBundle(pair=pair, links=links, provenance=provenance)


def split_seed(
    links: Sequence[tuple[int, int]],
    train_ratio: float,
    valid_ratio: float,
    seed: int,
) -> tuple[AlignmentSeed, AlignmentSeed, AlignmentSeed]:
    """Shuffle deterministically and cut into train/validation/test.

    Sizes are rounded from the ratios; the remainder is the test set.
    A train cut that rounds to 0 pairs is an error; a validation cut
    may round to 0 pairs (10 links at a ratio of 0.01 do).
    """
    if not (train_ratio > 0 and valid_ratio >= 0):  # false for NaN too
        raise DatasetError(
            "train ratio must be positive and valid ratio non-negative, "
            f"got {train_ratio} and {valid_ratio}"
        )
    if seed < 0:
        raise DatasetError(f"seed must be >= 0, got {seed}")
    if train_ratio + valid_ratio > 1.0 + 1e-12:
        raise DatasetError("train and validation ratios must sum to at most 1")
    n = len(links)
    n_train = int(round(n * train_ratio))
    n_valid = min(int(round(n * valid_ratio)), n - n_train)
    if n_train == 0:
        raise DatasetError(f"train ratio {train_ratio} yields an empty train set over {n} links")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [links[i] for i in order]
    train = tuple(sorted(shuffled[:n_train]))
    valid = tuple(sorted(shuffled[n_train : n_train + n_valid]))
    test = tuple(sorted(shuffled[n_train + n_valid :]))
    sets = (
        AlignmentSeed(pairs=train),
        AlignmentSeed(pairs=valid),
        AlignmentSeed(pairs=test),
    )
    validate_seed_sets(*sets)
    return sets


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------


def format_predictions(
    binary: Iterable[tuple[int, int, float, Origin]],
    source: KnowledgeGraph,
    target: KnowledgeGraph,
) -> str:
    lines = [
        f"{source.entity_labels[s]}\t{target.entity_labels[t]}\t{score:.6f}\t{origin.value}"
        for s, t, score, origin in binary
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _first_repeat(sources: Sequence[str], targets: Sequence[str]) -> tuple[int, str]:
    """The first row whose source or target an earlier row holds, and its
    fault; ``(len(sources), "")`` when the rows are one-to-one."""
    seen_sources: set[str] = set()
    seen_targets: set[str] = set()
    for row, (s, t) in enumerate(zip(sources, targets)):
        if s in seen_sources or t in seen_targets:
            side, label = ("source", s) if s in seen_sources else ("target", t)
            return row, f"repeated {side} entity {label!r}"
        seen_sources.add(s)
        seen_targets.add(t)
    return len(sources), ""


def _prediction_scores(
    rows: TsvRows, check_head: Callable[[TsvRows], object] = lambda head: None
) -> list[float]:
    """The scores of a four-column predictions file's rows, each row checked.

    Every score must be a number in [0, 1] and every origin an ``Origin``
    value, and no source or target may repeat.  The first faulty row is
    reported as ``file:line``, after ``check_head`` has seen the rows up
    to and including it, so that a fault ``check_head`` raises on one of
    them is reported instead.
    """
    scores = []
    repeat, repeat_fault = _first_repeat(*rows.columns[:2])
    for row, (score, origin) in enumerate(zip(*rows.columns[2:])):
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        if not 0.0 <= value <= 1.0:
            fault = f"score must be a number in [0, 1], got {score!r}"
        elif origin not in _ORIGINS:
            fault = f"unknown origin {origin!r}, expected observed, symbolic or neural"
        elif row == repeat:
            fault = repeat_fault
        else:
            scores.append(value)
            continue
        check_head(TsvRows(rows.name, tuple(c[: row + 1] for c in rows.columns), rows.lines))
        raise DatasetError(f"{rows.where(row)}: {fault}")
    return scores


def read_predictions(
    path: str | Path, pair: KnowledgeGraphPair
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Origin, ...]]:
    """The source and target ids, scores and origins of a predictions file
    as ``format_predictions`` writes it, one array or tuple per column.

    Every score must be a number in [0, 1] and every origin an ``Origin``
    value, and no source or target may repeat.  The first faulty line,
    unknown entity labels included, is reported as ``file:line``.
    """

    def parse(rows: TsvRows) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Origin, ...]]:
        # an unknown label on the faulty line or an earlier one is reported first
        scores = _prediction_scores(rows, lambda head: _link_ids(head, pair))
        src, tgt = np.array(_link_ids(rows, pair), dtype=np.int64).reshape(-1, 2).T
        return src, tgt, np.array(scores), tuple(map(_ORIGINS.get, rows.columns[3]))

    return read_tsv(Path(path), 4, parse)


def format_rankings(
    rankings: Mapping[int, Sequence[int]],
    source: KnowledgeGraph,
    target: KnowledgeGraph,
) -> str:
    lines = []
    for s in sorted(rankings):
        s_label = source.entity_labels[s]
        for rank, t in enumerate(rankings[s], start=1):
            lines.append(f"{s_label}\t{rank}\t{target.entity_labels[t]}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_links(pairs: Iterable[tuple[int, int]], source: KnowledgeGraph, target: KnowledgeGraph) -> str:
    lines = [
        f"{source.entity_labels[s]}\t{target.entity_labels[t]}" for s, t in pairs
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def build_manifest(
    config: EmConfig,
    provenance: Mapping[str, str],
    history: Sequence[IterationStats],
    extra: Mapping[str, object] | None = None,
) -> str:
    """Key-value run manifest with the per-iteration history appended."""
    lines = [
        f"format_version\t{FORMAT_VERSION}",
        f"timestamp\t{time.strftime('%Y-%m-%dT%H:%M:%S')}",
    ]
    items: dict[str, object] = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in ("neural", "workers")
    }
    items.update({f"neural.{k}": v for k, v in config.neural.__dict__.items()})
    items.update(extra or {})
    lines.extend(f"config.{k}\t{v}" for k, v in sorted(items.items()))
    lines.extend(f"input.{name}\tsha256:{digest}" for name, digest in sorted(provenance.items()))
    for st in history:
        loss = f"{st.neural_loss:.6f}" if st.neural_loss is not None else "-"
        prec = f"{st.validation_precision:.6f}" if st.validation_precision is not None else "-"
        lines.append(f"iteration\t{st.iteration}\t{st.inferred_pairs}\t{loss}\t{prec}")
    return "\n".join(lines) + "\n"


def emit_report(
    out_dir: str | Path,
    manifest: str,
    predictions: str,
    metrics: str,
    extras: Mapping[str, str] | None = None,
) -> Path:
    """Write the run artifacts; a minimal run emits exactly three files."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {
        "manifest.txt": manifest,
        "predictions.tsv": predictions,
        "metrics.tsv": metrics,
    }
    files.update(extras or {})
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# Config files and prediction files (for the eval command)
# ---------------------------------------------------------------------------


def read_config_file(path: str | Path) -> dict[str, str]:
    """``key=value`` lines; blank lines and #-comments are skipped."""
    path = Path(path)
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DatasetError(f"{path.name}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    return out


def load_label_pairs(path: str | Path) -> list[tuple[str, str]]:
    return list(zip(*read_tsv(Path(path), 2).columns))


def load_gold_links(path: str | Path) -> list[tuple[str, str]]:
    """The (source, target) label pairs of a gold links file, which must be
    one-to-one: a repeated source or target is reported as ``file:line``,
    as ``read_predictions`` reports it."""

    def parse(rows: TsvRows) -> list[tuple[str, str]]:
        repeat, fault = _first_repeat(*rows.columns)
        if fault:
            raise DatasetError(f"{rows.where(repeat)}: {fault}")
        return list(zip(*rows.columns))

    return read_tsv(Path(path), 2, parse)


def _parse_predictions(
    rows: TsvRows,
) -> tuple[dict[str, list[str]] | None, list[tuple[str, str]] | None]:
    if not rows.columns:
        return None, []
    if len(rows.columns) == 3:
        ranked: dict[str, dict[int, str]] = {}
        listed: dict[str, set[str]] = {}
        for row, (s, rank, t) in enumerate(zip(*rows.columns)):
            try:
                r = int(rank)
            except ValueError:
                line = f"{s}\t{rank}\t{t}"
                msg = f"{rows.where(row)}: expected source<TAB>rank<TAB>target, got {line!r}"
                raise DatasetError(msg) from None
            if r < 1:
                raise DatasetError(f"{rows.where(row)}: rank must be >= 1, got {rank!r}")
            by_rank = ranked.setdefault(s, {})
            if r in by_rank:
                raise DatasetError(f"{rows.where(row)}: repeated rank {r} for source {s!r}")
            targets = listed.setdefault(s, set())
            if t in targets:
                raise DatasetError(f"{rows.where(row)}: repeated target {t!r} for source {s!r}")
            by_rank[r] = t
            targets.add(t)
        return {s: [by_rank[r] for r in sorted(by_rank)] for s, by_rank in ranked.items()}, None
    if len(rows.columns) == 4:
        _prediction_scores(rows)
        return None, list(zip(*rows.columns[:2]))
    raise DatasetError(f"{rows.name}: unrecognized prediction format ({len(rows.columns)} columns)")


def load_prediction_file(
    path: str | Path,
) -> tuple[dict[str, list[str]] | None, list[tuple[str, str]] | None]:
    """Auto-detect a predictions file from the field count of its first line.

    Three columns with an integer middle field are ranked lists
    (``source<TAB>rank<TAB>target``), each source's targets ordered by
    rank; a rank below 1, or a rank or a target that a source repeats, is
    an error.  Four columns are binary predictions
    (``source<TAB>target<TAB>score<TAB>origin``), checked row by row as
    ``read_predictions`` checks them: a score outside [0, 1], an unknown
    origin or a repeated source or target is an error.  Returns
    (rankings, None) or (None, pairs).
    """
    return read_tsv(Path(path), None, _parse_predictions)
