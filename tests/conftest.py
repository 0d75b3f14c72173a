"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from kgalign.graph import (
    AlignmentSeed,
    KnowledgeGraph,
    KnowledgeGraphPair,
    load_graph,
)
from kgalign.symbolic import SubrelationTable, TruthScoreTable


def pack_direction(base: int, inverse: bool) -> int:
    """The packed directed relation of base relation ``base``, inverse if ``inverse``."""
    return base * 2 + int(inverse)


def psub_table(
    source: KnowledgeGraph,
    target: KnowledgeGraph,
    fwd: dict[tuple[int, int], float],
    bwd: dict[tuple[int, int], float],
) -> SubrelationTable:
    """Dense subrelation table from the dict form the oracles use; unlisted pairs hold 0."""
    shape = (2 * source.n_relations, 2 * target.n_relations)
    arrays = np.zeros(shape), np.zeros(shape[::-1])
    for weights, entries in zip(arrays, (fwd, bwd)):
        for key, v in entries.items():
            weights[key] = v
    return SubrelationTable(*arrays)


def psub_dicts(
    psub: SubrelationTable,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Both orientations' non-zero entries as the oracles' ``{(d, d'): p}`` dicts."""

    def entries(weights: np.ndarray) -> dict[tuple[int, int], float]:
        a, b = np.nonzero(weights)
        return dict(zip(zip(a.tolist(), b.tolist()), weights[a, b].tolist()))

    return entries(psub.source_in_target), entries(psub.target_in_source)


def matched_psub(
    source: KnowledgeGraph,
    target: KnowledgeGraph,
    mapping: dict[int, int],
    value: float = 1.0,
) -> SubrelationTable:
    """Direction-preserving subrelation table over a base-relation map.

    Sets p(d in d') = value for corresponding forward pairs and their
    inverse mirrors, in both orientations.
    """
    fwd: dict[tuple[int, int], float] = {}
    bwd: dict[tuple[int, int], float] = {}
    for r, r2 in mapping.items():
        for inv in (False, True):
            d = pack_direction(r, inv)
            d2 = pack_direction(r2, inv)
            fwd[(d, d2)] = value
            bwd[(d2, d)] = value
    return psub_table(source, target, fwd, bwd)


def chain_pair() -> tuple[KnowledgeGraphPair, SubrelationTable, TruthScoreTable]:
    """Two 3-entity chains with the seed at the far end."""
    src = load_graph([("a", "r", "b"), ("b", "r", "c")])
    tgt = load_graph([("a'", "r'", "b'"), ("b'", "r'", "c'")])
    pair = KnowledgeGraphPair(source=src, target=tgt)
    psub = matched_psub(src, tgt, {0: 0})
    seeds = TruthScoreTable.from_seeds([(src.entity_ids["c"], tgt.entity_ids["c'"])])
    return pair, psub, seeds


def random_graph(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_triples: int,
    prefix: str = "e",
    rel_prefix: str = "r",
) -> KnowledgeGraph:
    """Random triples over dense vocabularies; self-loops excluded."""
    records = []
    for _ in range(n_triples):
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        while t == h:
            t = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        records.append((f"{prefix}{h}", f"{rel_prefix}{r}", f"{prefix}{t}"))
    # pad so every entity id exists even if unlucky with the draw
    for e in range(n_entities):
        records.append((f"{prefix}{e}", f"{rel_prefix}0", f"{prefix}{(e + 1) % n_entities}"))
    return load_graph(records)


def connected_graph(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_triples: int,
    prefix: str = "e",
    rel_prefix: str = "r",
) -> KnowledgeGraph:
    """A weakly connected random graph: a random tree plus random extras.

    Tree edges draw their relation and orientation at random so that no
    single relation ends up perfectly functional by construction.
    Self-loops and duplicate triples are excluded.
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
        add(
            int(rng.integers(n_entities)),
            int(rng.integers(n_relations)),
            int(rng.integers(n_entities)),
        )
    records = [
        (f"{prefix}{h}", f"{rel_prefix}{r}", f"{prefix}{t}") for h, r, t in triples
    ]
    return load_graph(records)


def random_pair(
    rng: np.random.Generator,
    n_entities: int = 10,
    n_relations: int = 3,
    n_triples: int = 20,
) -> KnowledgeGraphPair:
    """Two unrelated random graphs of the same rough shape."""
    return KnowledgeGraphPair(
        source=random_graph(rng, n_entities, n_relations, n_triples, "a", "r"),
        target=random_graph(rng, n_entities, n_relations, n_triples, "b", "s"),
    )


def random_labels(
    rng: np.random.Generator,
    pair: KnowledgeGraphPair,
    n_labels: int,
    hard: bool = False,
) -> dict[tuple[int, int], float]:
    """Sparse random label table (value 1 when hard, else uniform (0,1])."""
    labels: dict[tuple[int, int], float] = {}
    for _ in range(n_labels):
        s = int(rng.integers(pair.source.n_entities))
        t = int(rng.integers(pair.target.n_entities))
        labels[(s, t)] = 1.0 if hard else float(rng.uniform(0.05, 1.0))
    return labels


def one_to_one(labels: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """The labels whose source and target no earlier label holds, in order.

    The one-to-one subset of a ``random_labels`` table, as the subrelation
    update requires; sweeps and retention take many-to-many tables.
    """
    kept: dict[tuple[int, int], float] = {}
    sources, targets = set(), set()
    for (s, t), v in labels.items():
        if s not in sources and t not in targets:
            kept[(s, t)] = v
            sources.add(s)
            targets.add(t)
    return kept


def random_psub(
    rng: np.random.Generator,
    pair: KnowledgeGraphPair,
    density: float = 0.4,
) -> SubrelationTable:
    """Random mirror-symmetric subrelation tables for sweep tests."""
    fwd: dict[tuple[int, int], float] = {}
    bwd: dict[tuple[int, int], float] = {}
    for r in range(pair.source.n_relations):
        for r2 in range(pair.target.n_relations):
            for inv_a in (False, True):
                for inv_b in (False, True):
                    d = pack_direction(r, inv_a)
                    d2 = pack_direction(r2, inv_b)
                    if rng.uniform() < density:
                        v = float(rng.uniform(0.05, 1.0))
                        fwd[(d, d2)] = v
                        fwd[(d ^ 1, d2 ^ 1)] = v
                    if rng.uniform() < density:
                        v = float(rng.uniform(0.05, 1.0))
                        bwd[(d2, d)] = v
                        bwd[(d2 ^ 1, d ^ 1)] = v
    return psub_table(pair.source, pair.target, fwd, bwd)


def isomorphic_pair(
    seed: int,
    n_entities: int = 500,
    n_relations: int = 20,
    n_triples: int = 1500,
) -> tuple[KnowledgeGraphPair, dict[int, int]]:
    """A random graph and a structure-identical copy with renamed labels.

    The copy permutes entity identities and renames every label, so the
    only way to recover the gold map (returned as source id -> target
    id) is through the relational structure.
    """
    rng = np.random.default_rng(seed)
    source = connected_graph(rng, n_entities, n_relations, n_triples, "src_e", "src_r")
    perm = rng.permutation(n_entities)
    records = [
        (f"tgt_e{perm[h]}", f"tgt_r{r}", f"tgt_e{perm[t]}") for h, r, t in zip(*source.triple_columns)
    ]
    order = rng.permutation(len(records))
    target = load_graph([records[i] for i in order])
    pair = KnowledgeGraphPair(source=source, target=target)
    gold = {
        s: target.entity_ids[f"tgt_e{perm[s]}"] for s in range(source.n_entities)
    }
    return pair, gold


def split_gold(
    gold: dict[int, int], train_fraction: float, seed: int
) -> tuple[AlignmentSeed, AlignmentSeed]:
    """Cut a gold map into train seeds and held-out test pairs."""
    rng = np.random.default_rng(seed)
    sources = sorted(gold)
    order = rng.permutation(len(sources))
    n_train = max(1, int(round(len(sources) * train_fraction)))
    train = tuple(sorted((sources[i], gold[sources[i]]) for i in order[:n_train]))
    test = tuple(sorted((sources[i], gold[sources[i]]) for i in order[n_train:]))
    return (
        AlignmentSeed(pairs=train),
        AlignmentSeed(pairs=test),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
