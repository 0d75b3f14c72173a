"""Indexed, immutable triple stores for a pair of knowledge graphs.

Entities and relations are interned to dense integer ids at load time so
that every downstream table (functionalities, subrelation probabilities,
truth scores) can be keyed by plain ints.  Each triple (h, r, t) is also
usable in the reverse direction as (t, r-inverse, h).  A directed
relation is one packed int ``d = 2 * base + inverse`` everywhere:
``d >> 1`` is its base relation, ``d & 1`` its direction (1 = inverse)
and ``d ^ 1`` the opposite direction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class IngestError(ValueError):
    """Raised when triple or link records cannot be parsed."""


@dataclass(frozen=True)
class AlignmentSeed:
    """A list of (source-entity, target-entity) id pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def by_source(self) -> dict[int, int]:
        return {s: t for s, t in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


class DirectedAdjacency(NamedTuple):
    """Directed edges in CSR form: entity e owns ``rel``/``nbr`` slots ``indptr[e]:indptr[e+1]``."""

    indptr: np.ndarray
    rel: np.ndarray
    nbr: np.ndarray


class KnowledgeGraph:
    """An indexed triple store over interned entity/relation labels.

    The graph is immutable after construction.  ``directed_adj`` lists
    every triple twice, as a forward edge at its head and an inverse edge
    at its tail, as (packed directed relation, neighbor) pairs per
    entity, ordered by (base relation, neighbor, direction) so that the
    propagation sweeps and the path search are deterministic.
    ``triple_columns`` holds the triples once more as read-only int64
    head, relation and tail arrays in triple order, and ``edge_index``
    the directed edges keyed by endpoint pair.

    Triples are distinct: the constructor keeps the first of each
    repeated row.  So ``compute_functionalities`` counts each (h, t)
    once, and the subrelation update, which also takes a one-to-one
    alignment, finds each d' joining a counterpart pair in
    ``edge_index`` at most once.
    """

    def __init__(
        self,
        entity_labels: Sequence[str],
        relation_labels: Sequence[str],
        triples: Sequence[tuple[int, int, int]] | np.ndarray,
    ):
        """``triples`` holds (h, r, t) id rows, as tuples or a ``(T, 3)`` int array.

        Rows keep the order given; a repeated row is dropped, its first
        occurrence kept, and the count is logged.
        """
        self.entity_labels: tuple[str, ...] = tuple(entity_labels)
        self.relation_labels: tuple[str, ...] = tuple(relation_labels)
        self.entity_ids: dict[str, int] = dict(zip(self.entity_labels, range(self.n_entities)))
        self.relation_ids: dict[str, int] = dict(zip(self.relation_labels, range(self.n_relations)))
        check_key_space(self.n_entities, self.n_relations)
        for label in self.relation_labels:
            if f"{label}^-1" in self.relation_ids:
                logger.warning(
                    "relations %r and %r: reports and p_sub dumps print the first's inverse like the second",
                    label,
                    f"{label}^-1",
                )

        columns = np.array(triples, dtype=np.int64).reshape(-1, 3).T
        h, r, t = columns
        owner, nbr = np.concatenate([h, t]), np.concatenate([t, h])
        rel = np.concatenate([2 * r, 2 * r + 1])
        # The packed (owner, base relation, neighbor, direction) key sorts
        # in the order of those four keys.  Equal keys are the edges of
        # one repeated triple, with equal ``rel`` and ``nbr``, so the sort
        # need not be stable: each run of them keeps one edge, and the
        # triple keeps its first row, the least slot of its forward run.
        key = ((owner * self.n_relations + (rel >> 1)) * self.n_entities + nbr) * 2 + (rel & 1)
        order = np.argsort(key)
        runs = np.flatnonzero(np.diff(key[order], prepend=-1))
        if len(runs) < len(order):
            first = np.minimum.reduceat(order, runs)
            keep = np.zeros(len(h), dtype=np.bool_)
            keep[first[first < len(h)]] = True
            logger.info("dropped %d repeated triples", len(h) - len(runs) // 2)
            columns, order = columns[:, keep], order[runs]
        columns = np.ascontiguousarray(columns)
        columns.flags.writeable = False
        h, r, t = columns
        self.triple_columns: tuple[np.ndarray, np.ndarray, np.ndarray] = (h, r, t)
        self.directed_adj = DirectedAdjacency(
            indptr=np.concatenate([[0], np.cumsum(np.bincount(owner[order], minlength=self.n_entities))]),
            rel=rel[order],
            nbr=nbr[order],
        )

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def n_triples(self) -> int:
        return len(self.triple_columns[0])

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges as read-only sorted keys ``u * n_entities + v`` and packed relations.

        Parallel relations of one (u, v) are adjacent and ascending.  Built on first use.
        """
        adj = self.directed_adj
        keys = np.repeat(np.arange(self.n_entities), np.diff(adj.indptr)) * self.n_entities + adj.nbr
        order = np.argsort(keys, kind="stable")
        keys, rel = keys[order], adj.rel[order]
        keys.flags.writeable = rel.flags.writeable = False
        return keys, rel

    def neighbors(self, e: int) -> list[tuple[int, int]]:
        """All directed edges leaving ``e`` as (packed relation, neighbor) pairs.

        Out-edges are forward, in-edges inverse, in the CSR's order (base
        relation, neighbor, direction).  Raises ``KeyError`` for an
        unknown entity id.
        """
        if not 0 <= e < self.n_entities:
            raise KeyError(f"unknown entity id {e}")
        lo, hi = self.directed_adj.indptr[e : e + 2].tolist()
        return list(zip(self.directed_adj.rel[lo:hi].tolist(), self.directed_adj.nbr[lo:hi].tolist()))

    def directed_label(self, packed: int) -> str:
        """Readable token for a packed directed relation, e.g. ``spouse^-1``."""
        label = self.relation_labels[packed >> 1]
        return f"{label}^-1" if packed & 1 else label

    def triple_records(self) -> list[tuple[str, str, str]]:
        """Back-map the triples to label records (round-trip of ingestion)."""
        ent, rel = self.entity_labels, self.relation_labels
        h, r, t = (col.tolist() for col in self.triple_columns)
        return [(ent[a], rel[b], ent[c]) for a, b, c in zip(h, r, t)]


def check_key_space(n_entities: int, n_relations: int) -> None:
    """Raise :class:`IngestError` when a packed edge key could overflow int64.

    The largest key ``((owner * R + base) * E + nbr) * 2 + direction`` is
    ``2 * E**2 * R - 1`` for E entities and R relations.
    """
    if 2 * n_entities**2 * n_relations >= 2**63:
        raise IngestError(
            f"{n_entities} entities and {n_relations} relations are too many for 64-bit "
            f"edge keys (2 * entities^2 * relations must stay below 2^63)"
        )


def load_graph(triple_records: Iterable[Sequence[str]]) -> KnowledgeGraph:
    """Build a :class:`KnowledgeGraph` from (head, relation, tail) label records.

    Labels are interned in first-seen order; the graph drops exact
    duplicate triples, the first kept (a count is logged), so that the
    noisy-OR evidence products do not double-count.  A record with the
    wrong arity or an empty field raises :class:`IngestError` naming the
    1-based record number.
    """
    # The records are freed before the graph builds its indexes.
    return KnowledgeGraph(*_intern(list(triple_records)))


def _intern(records: list[Sequence[str]]) -> tuple[list[str], list[str], np.ndarray]:
    """Entity labels, relation labels and the ``(T, 3)`` id rows of the records."""
    ends = list(chain.from_iterable(records))
    if set(map(len, records)) - {3} or not all(ends):
        lineno, record = next(
            (i, rec) for i, rec in enumerate(records, start=1) if len(rec) != 3 or not all(rec)
        )
        if len(record) != 3:
            raise IngestError(
                f"record {lineno}: expected 3 fields (head, relation, tail), got {len(record)}"
            )
        raise IngestError(f"record {lineno}: empty field in triple {record!r}")

    rels = ends[1::3]
    del ends[1::3]  # leaves heads and tails interleaved, in first-seen order
    entity_labels = list(dict.fromkeys(ends))
    relation_labels = list(dict.fromkeys(rels))
    entity_ids = dict(zip(entity_labels, range(len(entity_labels))))
    relation_ids = dict(zip(relation_labels, range(len(relation_labels))))
    end_ids = np.fromiter(map(entity_ids.__getitem__, ends), dtype=np.int64, count=len(ends))
    h, t = end_ids[0::2], end_ids[1::2]
    r = np.fromiter(map(relation_ids.__getitem__, rels), dtype=np.int64, count=len(rels))
    return entity_labels, relation_labels, np.column_stack([h, r, t])


@dataclass(frozen=True)
class KnowledgeGraphPair:
    """The two graphs being aligned; `source` owns E, `target` owns E'.

    The pair holds nothing but the two graphs: every index over them is
    kept on the graphs themselves.
    """

    source: KnowledgeGraph
    target: KnowledgeGraph

    def edge_relations(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """The ``edge_index`` of the ``"source"`` or ``"target"`` graph."""
        return (self.source if side == "source" else self.target).edge_index


def is_one_to_one(src: Sequence[int], tgt: Sequence[int]) -> bool:
    """Whether no source and no target repeats among the pairs (src[i],
    tgt[i]) of non-negative int ids."""
    return all(np.bincount(np.asarray(ids, dtype=np.int64)).max(initial=0) <= 1 for ids in (src, tgt))


def validate_seed_sets(
    train: AlignmentSeed, validation: AlignmentSeed, test: AlignmentSeed
) -> None:
    """Check the one-to-one train property and pairwise disjointness.

    The pairs may hold ids or labels (``kgalign split`` passes labels)."""
    for ends in zip(*train.pairs):
        if len(set(ends)) < len(ends):
            raise IngestError("train seed set is not one-to-one")
    sets = {
        "train": set(train.pairs),
        "validation": set(validation.pairs),
        "test": set(test.pairs),
    }
    names = list(sets)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            overlap = sets[a] & sets[b]
            if overlap:
                raise IngestError(
                    f"{a} and {b} seed sets overlap on {len(overlap)} pairs, e.g. {next(iter(overlap))}"
                )
