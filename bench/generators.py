"""Synthetic dataset generators owned by the benchmark.

The benchmark hands the library nothing but TSV files, so every input is
made here from a workload seed.  Two families:

* :func:`isomorphic_pair` copies the test suite's relabeled-copy
  generator draw for draw (``tests/conftest.py`` imports pytest, which
  the benchmark must not need); ``test_bench.py`` checks that the two
  agree triple for triple.
* :func:`noisy_pair` builds an OpenEA-style pair that is not a perfect
  copy: per-side triple dropout, dangling entities present in one graph
  only, one relation split in two on the target side, and a power-law
  skew on where the extra triples land.

Generators return label records only; the library's own ingest is what
the benchmark measures, so it is never used to build inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

Record = tuple[str, str, str]

# Noise of :func:`noisy_pair`: the share of base triples each side drops,
# dangling entities per base entity, triples per dangling entity, and the
# Zipf exponent of the endpoint skew.
DROP = 0.10
DANGLING = 0.10
DANGLING_DEGREE = 3
ZIPF = 0.5


@dataclass(frozen=True)
class Dataset:
    """Label-level content of the three dataset files."""

    source: tuple[Record, ...]
    target: tuple[Record, ...]
    links: tuple[tuple[str, str], ...]


def connected_triples(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_triples: int,
    endpoint_p: np.ndarray | None = None,
) -> list[tuple[int, int, int]]:
    """A random tree plus extra random triples, as generator ids.

    With ``endpoint_p`` unset the draws are exactly those of the test
    suite's ``connected_graph``.  Otherwise the extra triples draw both
    endpoints from that distribution, in batches.
    """
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

    def add(h: int, r: int, t: int) -> None:
        if h != t and (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append((h, r, t))

    for e in range(1, n_entities):
        other = int(rng.integers(e))
        r = int(rng.integers(n_relations))
        if rng.random() < 0.5:
            add(e, r, other)
        else:
            add(other, r, e)
    while len(triples) < n_triples:
        if endpoint_p is None:
            add(
                int(rng.integers(n_entities)),
                int(rng.integers(n_relations)),
                int(rng.integers(n_entities)),
            )
            continue
        m = n_triples - len(triples)
        heads = rng.choice(n_entities, size=m, p=endpoint_p)
        rels = rng.integers(n_relations, size=m)
        tails = rng.choice(n_entities, size=m, p=endpoint_p)
        for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist()):
            add(h, r, t)
    return triples


def _intern(records: Sequence[Record]) -> tuple[list[str], list[tuple[int, int, int]]]:
    """Entity labels and id triples in first-seen order, as ingest assigns them."""
    ent: dict[str, int] = {}
    rel: dict[str, int] = {}
    triples = []
    for h, r, t in records:
        hid = ent.setdefault(h, len(ent))
        rid = rel.setdefault(r, len(rel))
        tid = ent.setdefault(t, len(ent))
        triples.append((hid, rid, tid))
    return list(ent), triples


def isomorphic_pair(seed: int, n_entities: int, n_relations: int, n_triples: int) -> Dataset:
    """A random graph and a structure-identical copy with renamed labels.

    The target permutes the source's ingest ids, renames every label and
    shuffles the triple order; every source entity has a gold link.
    """
    rng = np.random.default_rng(seed)
    source = [
        (f"src_e{h}", f"src_r{r}", f"src_e{t}")
        for h, r, t in connected_triples(rng, n_entities, n_relations, n_triples)
    ]
    labels, triples = _intern(source)
    perm = rng.permutation(n_entities)
    records = [(f"tgt_e{perm[h]}", f"tgt_r{r}", f"tgt_e{perm[t]}") for h, r, t in triples]
    order = rng.permutation(len(records))
    target = tuple(records[i] for i in order)
    links = tuple((labels[s], f"tgt_e{perm[s]}") for s in range(len(labels)))
    return Dataset(source=tuple(source), target=target, links=links)


def noisy_pair(
    seed: int,
    n_entities: int = 10_000,
    n_relations: int = 40,
    n_triples: int = 30_000,
) -> Dataset:
    """Two noisy views of one base graph, in the style of OpenEA pairs.

    Each side keeps every base triple with probability ``1 - DROP`` and
    adds ``DANGLING * n_entities`` entities of its own with
    ``DANGLING_DEGREE`` triples each.  Extra base triples and dangling
    triples draw their base endpoints with weight ``rank ** -ZIPF`` over a
    random ranking of the entities.  On the target side every triple of
    base relation 0 is relabeled at random to one of two new relations.
    Gold links cover the base entities present in both graphs.
    """
    rng = np.random.default_rng(seed)
    weights = (rng.permutation(n_entities) + 1.0) ** -ZIPF
    endpoint_p = weights / weights.sum()
    base = connected_triples(rng, n_entities, n_relations, n_triples, endpoint_p)
    perm = rng.permutation(n_entities)
    n_dangling = int(round(DANGLING * n_entities))

    sides = []
    for side in ("src", "tgt"):
        keep = rng.random(len(base)) >= DROP
        triples = [tr for tr, k in zip(base, keep.tolist()) if k]
        anchors = rng.choice(n_entities, size=(n_dangling, DANGLING_DEGREE), p=endpoint_p)
        rels = rng.integers(n_relations, size=(n_dangling, DANGLING_DEGREE))
        outward = rng.random((n_dangling, DANGLING_DEGREE)) < 0.5
        seen: set[tuple[int, int, int]] = set()
        for j in range(n_dangling):
            d = n_entities + j
            for a, r, out in zip(anchors[j].tolist(), rels[j].tolist(), outward[j].tolist()):
                tr = (d, r, a) if out else (a, r, d)
                if tr not in seen:
                    seen.add(tr)
                    triples.append(tr)
        sides.append(triples)

    def entity(side: str, e: int) -> str:
        if e >= n_entities:
            return f"{side}_d{e - n_entities}"
        return f"src_e{e}" if side == "src" else f"tgt_e{perm[e]}"

    src_triples, tgt_triples = sides
    source = [(entity("src", h), f"src_r{r}", entity("src", t)) for h, r, t in src_triples]
    split = rng.random(len(tgt_triples)) < 0.5
    target = [
        (
            entity("tgt", h),
            (f"tgt_r0{'b' if s else 'a'}" if r == 0 else f"tgt_r{r}"),
            entity("tgt", t),
        )
        for (h, r, t), s in zip(tgt_triples, split.tolist())
    ]
    source = [source[i] for i in rng.permutation(len(source))]
    target = [target[i] for i in rng.permutation(len(target))]

    present = [set(), set()]
    for i, triples in enumerate(sides):
        for h, _, t in triples:
            present[i].add(h)
            present[i].add(t)
    both = sorted(e for e in present[0] & present[1] if e < n_entities)
    links = tuple((entity("src", e), entity("tgt", e)) for e in both)
    return Dataset(source=tuple(source), target=tuple(target), links=links)


def write_dataset(dataset: Dataset, directory: Path) -> None:
    """Write the three-file dataset layout the library reads."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, records in (("rel_triples_1", dataset.source), ("rel_triples_2", dataset.target)):
        with open(directory / name, "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in records)
    with open(directory / "ent_links", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in dataset.links)
