"""Indexed, immutable triple stores for a pair of knowledge graphs.

Entities and relations are interned to dense integer ids at load time so
that every downstream table (functionalities, subrelation probabilities,
truth scores) can be keyed by plain ints.  Each triple (h, r, t) is also
usable in the reverse direction as (t, r-inverse, h); directed relations
are represented either as :class:`DirectedRelation` on public surfaces or
as packed ints (``base * 2 + inverse``) inside the engines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class IngestError(ValueError):
    """Raised when triple or link records cannot be parsed."""


class DirectedRelation(NamedTuple):
    """A base relation id together with a traversal direction."""

    base: int
    inverse: bool = False

    def flip(self) -> "DirectedRelation":
        return DirectedRelation(self.base, not self.inverse)

    @property
    def packed(self) -> int:
        return self.base * 2 + int(self.inverse)


def pack_direction(base: int, inverse: bool) -> int:
    return base * 2 + int(inverse)


def unpack_direction(packed: int) -> DirectedRelation:
    return DirectedRelation(packed >> 1, bool(packed & 1))


class SeedRole(Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


@dataclass(frozen=True)
class AlignmentSeed:
    """A list of (source-entity, target-entity) id pairs with a split role."""

    pairs: tuple[tuple[int, int], ...]
    role: SeedRole

    @property
    def by_source(self) -> dict[int, int]:
        return {s: t for s, t in self.pairs}

    @property
    def by_target(self) -> dict[int, int]:
        return {t: s for s, t in self.pairs}

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
    """

    def __init__(
        self,
        entity_labels: Sequence[str],
        relation_labels: Sequence[str],
        triples: Sequence[tuple[int, int, int]],
    ):
        self.entity_labels: tuple[str, ...] = tuple(entity_labels)
        self.relation_labels: tuple[str, ...] = tuple(relation_labels)
        self.entity_ids: dict[str, int] = {lab: i for i, lab in enumerate(self.entity_labels)}
        self.relation_ids: dict[str, int] = {lab: i for i, lab in enumerate(self.relation_labels)}
        self.triples: tuple[tuple[int, int, int], ...] = tuple(triples)

        columns = np.array(self.triples, dtype=np.int64).reshape(-1, 3).T.copy()
        columns.flags.writeable = False
        h, r, t = columns
        self.triple_columns: tuple[np.ndarray, np.ndarray, np.ndarray] = (h, r, t)
        owner, nbr = np.concatenate([h, t]), np.concatenate([t, h])
        rel = np.concatenate([2 * r, 2 * r + 1])
        order = np.lexsort((rel, nbr, rel >> 1, owner))
        self.directed_adj = DirectedAdjacency(
            indptr=np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=self.n_entities))]),
            rel=rel[order],
            nbr=nbr[order],
        )
        self._directions = tuple(unpack_direction(d) for d in range(2 * self.n_relations))

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def n_triples(self) -> int:
        return len(self.triples)

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

    def neighbors(self, e: int) -> list[tuple[DirectedRelation, int]]:
        """All directed edges leaving ``e``: out-edges forward, in-edges inverse.

        Deterministic order (base relation id, then neighbor id).  Raises
        ``KeyError`` for an unknown entity id.
        """
        if not 0 <= e < self.n_entities:
            raise KeyError(f"unknown entity id {e}")
        lo, hi = self.directed_adj.indptr[e : e + 2].tolist()
        edges = zip(self.directed_adj.rel[lo:hi].tolist(), self.directed_adj.nbr[lo:hi].tolist())
        return [(self._directions[d], nbr) for d, nbr in edges]

    def directed_label(self, packed: int) -> str:
        """Readable token for a packed directed relation, e.g. ``spouse^-1``."""
        rel = unpack_direction(packed)
        label = self.relation_labels[rel.base]
        return f"{label}^-1" if rel.inverse else label

    def triple_records(self) -> list[tuple[str, str, str]]:
        """Back-map the triples to label records (round-trip of ingestion)."""
        ent, rel = self.entity_labels, self.relation_labels
        return [(ent[h], rel[r], ent[t]) for h, r, t in self.triples]


def load_graph(triple_records: Iterable[Sequence[str]]) -> KnowledgeGraph:
    """Build a :class:`KnowledgeGraph` from (head, relation, tail) label records.

    Labels are interned in first-seen order; exact duplicate triples are
    dropped (a count is logged) so that the noisy-OR evidence products do
    not double-count.  Records with the wrong arity raise
    :class:`IngestError` naming the 1-based record number.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    entity_labels: list[str] = []
    relation_labels: list[str] = []
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    dropped = 0

    def intern(label: str, ids: dict[str, int], labels: list[str]) -> int:
        idx = ids.get(label)
        if idx is None:
            idx = len(labels)
            ids[label] = idx
            labels.append(label)
        return idx

    for lineno, record in enumerate(triple_records, start=1):
        if len(record) != 3:
            raise IngestError(
                f"record {lineno}: expected 3 fields (head, relation, tail), got {len(record)}"
            )
        head, rel, tail = record
        if not head or not rel or not tail:
            raise IngestError(f"record {lineno}: empty field in triple {record!r}")
        h = intern(head, entity_ids, entity_labels)
        r = intern(rel, relation_ids, relation_labels)
        t = intern(tail, entity_ids, entity_labels)
        triple = (h, r, t)
        if triple in seen:
            dropped += 1
            continue
        seen.add(triple)
        triples.append(triple)

    if dropped:
        logger.info("dropped %d duplicate triples on ingest", dropped)
    return KnowledgeGraph(entity_labels, relation_labels, triples)


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


def validate_seed_sets(
    train: AlignmentSeed, validation: AlignmentSeed, test: AlignmentSeed
) -> None:
    """Check the one-to-one train property and pairwise disjointness."""
    sources = [s for s, _ in train.pairs]
    targets = [t for _, t in train.pairs]
    if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
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
