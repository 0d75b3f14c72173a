"""Dataset loading, seed splitting, and run-artifact emission.

Directory layout follows the usual two-KG benchmark convention: a
dataset directory holds ``rel_triples_1`` and ``rel_triples_2`` (one
``head<TAB>relation<TAB>tail`` per line) plus ``ent_links``
(``source<TAB>target``).  Everything is UTF-8 and tab-separated, and
every parse error is reported with its file and line number.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .em import EmConfig, IterationStats
from .embedder import Origin
from .graph import (
    AlignmentSeed,
    IngestError,
    KnowledgeGraph,
    KnowledgeGraphPair,
    SeedRole,
    load_graph,
    validate_seed_sets,
)

FORMAT_VERSION = 1

TRIPLE_FILES = ("rel_triples_1", "rel_triples_2")
LINKS_FILE = "ent_links"


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


def read_tsv_rows(path: Path, n_fields: int) -> list[list[str]]:
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields or any(not f for f in fields):
                raise DatasetError(
                    f"{path.name}:{lineno}: expected {n_fields} non-empty "
                    f"tab-separated fields, got {line!r}"
                )
            rows.append(fields)
    return rows


def load_dataset(directory: str | Path) -> DatasetBundle:
    """Read and cross-check the triple files and the alignment links."""
    root = Path(directory)
    for name in (*TRIPLE_FILES, LINKS_FILE):
        if not (root / name).is_file():
            raise DatasetError(f"missing dataset file: {root / name}")

    graphs = []
    for name in TRIPLE_FILES:
        try:
            graphs.append(load_graph(read_tsv_rows(root / name, 3)))
        except IngestError as exc:
            raise DatasetError(f"{name}: {exc}") from exc
    pair = KnowledgeGraphPair(source=graphs[0], target=graphs[1])

    links: list[tuple[int, int]] = []
    links_path = root / LINKS_FILE
    with open(links_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or any(not f for f in fields):
                raise DatasetError(
                    f"{links_path.name}:{lineno}: expected source<TAB>target, got {line!r}"
                )
            src, tgt = fields
            s = pair.source.entity_ids.get(src)
            t = pair.target.entity_ids.get(tgt)
            if s is None:
                raise DatasetError(
                    f"{links_path.name}:{lineno}: link references unknown source entity {src!r}"
                )
            if t is None:
                raise DatasetError(
                    f"{links_path.name}:{lineno}: link references unknown target entity {tgt!r}"
                )
            links.append((s, t))

    provenance = {name: _sha256(root / name) for name in (*TRIPLE_FILES, LINKS_FILE)}
    return DatasetBundle(pair=pair, links=tuple(links), provenance=provenance)


def save_dataset(bundle: DatasetBundle, directory: str | Path) -> None:
    """Write the bundle back out in the same three-file layout."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name, kg in zip(TRIPLE_FILES, (bundle.pair.source, bundle.pair.target)):
        with open(root / name, "w", encoding="utf-8") as fh:
            for h, r, t in kg.triple_records():
                fh.write(f"{h}\t{r}\t{t}\n")
    src_labels = bundle.pair.source.entity_labels
    tgt_labels = bundle.pair.target.entity_labels
    with open(root / LINKS_FILE, "w", encoding="utf-8") as fh:
        for s, t in bundle.links:
            fh.write(f"{src_labels[s]}\t{tgt_labels[t]}\n")


def split_seed(
    links: Sequence[tuple[int, int]],
    train_ratio: float,
    valid_ratio: float,
    seed: int,
) -> tuple[AlignmentSeed, AlignmentSeed, AlignmentSeed]:
    """Shuffle deterministically and cut into train/validation/test.

    Sizes are rounded from the ratios; the remainder is the test set.
    An empty train cut is an error, down to 1% ratios the round keeps
    at least one pair per requested non-zero cut.
    """
    if train_ratio <= 0 or valid_ratio < 0:
        raise DatasetError("train ratio must be positive and valid ratio non-negative")
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
        AlignmentSeed(pairs=train, role=SeedRole.TRAIN),
        AlignmentSeed(pairs=valid, role=SeedRole.VALIDATION),
        AlignmentSeed(pairs=test, role=SeedRole.TEST),
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
        "delta": config.delta,
        "iterations": config.iterations,
        "rule_length": config.rule_length,
        "retention_rho": config.retention_rho,
        "seed": config.seed,
        "symbolic_only": config.symbolic_only,
        "hidden_weight": config.hidden_weight,
        "top_c": config.top_c,
        "confidence_floor": config.confidence_floor,
        "rank_depth": config.rank_depth,
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
    extras: Mapping[str, str | bytes] | None = None,
) -> Path:
    """Write the run artifacts; a minimal run emits exactly three files."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    files: dict[str, str | bytes] = {
        "manifest.txt": manifest,
        "predictions.tsv": predictions,
        "metrics.tsv": metrics,
    }
    files.update(extras or {})
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# Config files and prediction files (for the eval command)
# ---------------------------------------------------------------------------


def read_config_file(path: str | Path) -> dict[str, str]:
    """``key=value`` lines; blank lines and #-comments are skipped."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(f"{Path(path).name}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def load_label_pairs(path: str | Path) -> list[tuple[str, str]]:
    return [(a, b) for a, b in read_tsv_rows(Path(path), 2)]


def load_prediction_file(
    path: str | Path,
) -> tuple[dict[str, list[str]] | None, list[tuple[str, str]] | None]:
    """Auto-detect a predictions file.

    Three columns with an integer middle field are ranked lists
    (``source<TAB>rank<TAB>target``); four columns are binary
    predictions (``source<TAB>target<TAB>score<TAB>origin``).  Returns
    (rankings, None) or (None, pairs).
    """
    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh if ln.strip()]
    if not lines:
        return None, []
    width = len(lines[0].split("\t"))
    if width == 3:
        rankings: dict[str, list[str]] = {}
        for lineno, line in enumerate(lines, start=1):
            fields = line.split("\t")
            if len(fields) != 3 or not fields[1].isdigit():
                raise DatasetError(
                    f"{p.name}:{lineno}: expected source<TAB>rank<TAB>target, got {line!r}"
                )
            rankings.setdefault(fields[0], []).append(fields[2])
        return rankings, None
    if width == 4:
        pairs: list[tuple[str, str]] = []
        for lineno, line in enumerate(lines, start=1):
            fields = line.split("\t")
            if len(fields) != 4:
                raise DatasetError(
                    f"{p.name}:{lineno}: expected 4 tab-separated fields, got {line!r}"
                )
            pairs.append((fields[0], fields[1]))
        return None, pairs
    raise DatasetError(f"{p.name}: unrecognized prediction format ({width} columns)")
