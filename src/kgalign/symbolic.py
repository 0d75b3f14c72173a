"""Probabilistic rule engine over a knowledge-graph pair.

The engine keeps three tables:

* per-directed-relation functionalities (how uniquely one endpoint of a
  triple determines the other),
* subrelation probabilities between directed relations of the two graphs
  (the learnable rule weights), and
* a sparse truth-score table of entity-pair alignment probabilities with
  the observed seed pairs pinned at 1.

A sweep recomputes every candidate pair's score as a noisy-OR over its
matched neighbor-triple pairs; running L sweeps composes length-L
relational rules out of unit steps.  Between sweeps only each entity's
best-scoring counterparts are retained, which bounds storage by the
number of entities rather than the number of pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .graph import KnowledgeGraph, KnowledgeGraphPair, is_one_to_one

logger = logging.getLogger(__name__)

PSUB_EPSILON = 1e-9
PSUB_MIN_SUPPORT = 1e-6


def compute_functionalities(kg: KnowledgeGraph) -> np.ndarray:
    """Per-directed-relation uniqueness ratios in (0, 1] as a ``(2R,)`` float64 array.

    Indexed by packed directed relation: for a base relation r, the forward
    entry is (distinct heads) / (distinct head-tail pairs) and the inverse
    entry (distinct tails) / (distinct head-tail pairs).  Relations without
    triples carry 0.

    The counts come from one walk of ``directed_adj``, which lists each
    entity's edges by base relation: a run of edges with one owner and
    one base relation r holds a forward edge when its owner is a head of
    r, and an inverse edge when it is a tail.
    """
    adj = kg.directed_adj
    n_rel = kg.n_relations
    pairs = np.bincount(kg.triple_columns[1], minlength=n_rel)  # triples are distinct: distinct (h, t)
    owner = np.repeat(np.arange(kg.n_entities), np.diff(adj.indptr))
    run = np.flatnonzero(np.diff(owner * n_rel + (adj.rel >> 1), prepend=-1))
    inverse = np.add.reduceat(adj.rel & 1, run)
    forward = np.diff(run, append=len(adj.rel)) - inverse
    base = adj.rel[run] >> 1
    heads = np.bincount(base[forward > 0], minlength=n_rel)
    tails = np.bincount(base[inverse > 0], minlength=n_rel)
    values = np.zeros(2 * n_rel, dtype=np.float64)
    has = pairs > 0
    values[0::2][has] = heads[has] / pairs[has]
    values[1::2][has] = tails[has] / pairs[has]
    return values


@dataclass(frozen=True, eq=False)
class SubrelationTable:
    """Directed subrelation probabilities between the two graphs.

    Both orientations are dense float64 arrays indexed by packed directed
    relation: ``source_in_target[d, d']`` (shape 2R x 2R') estimates
    P(d implies d') for a directed relation d of the source graph and d'
    of the target graph, and ``target_in_source[d', d]`` (shape 2R' x 2R)
    the converse.  A pair that was never estimated holds 0, which reads
    the same as an estimate of 0.
    """

    source_in_target: np.ndarray
    target_in_source: np.ndarray

    def __len__(self) -> int:
        """Number of non-zero entries over both orientations."""
        return int(np.count_nonzero(self.source_in_target) + np.count_nonzero(self.target_in_source))


def _pair_keys(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """One int64 key per (source, target) pair, ordered as the pairs are."""
    return (src << 32) | tgt


@dataclass(frozen=True, eq=False)
class TruthScoreTable:
    """Sparse (source entity, target entity) -> alignment probability table.

    Entries are unique and ascending by the ``s << 32 | t`` key: each
    source entity's counterparts form one run of ``tgt`` and ``val``, by
    ascending target.  The constructor takes entries in any order and
    brings them into this one; of a repeated pair, the first entry wins.
    The columns are held as int64, int64 and float64 arrays, whatever
    array-likes were passed.

    ``pin_keys`` holds the observed seed pairs as sorted ``s << 32 | t``
    keys.  Pinned pairs always score exactly 1 and no sweep or retention
    pass may alter or drop them: the constructor sets pinned entries to 1
    and adds each missing pin.
    """

    src: np.ndarray
    tgt: np.ndarray
    val: np.ndarray
    pin_keys: np.ndarray

    def __post_init__(self):
        src, tgt = (np.asarray(col, dtype=np.int64) for col in (self.src, self.tgt))
        # The pins go first, so a pinned pair's first occurrence reads 1.
        keys, first = np.unique(
            np.concatenate([self.pin_keys, _pair_keys(src, tgt)]), return_index=True
        )
        val = np.concatenate([np.ones(len(self.pin_keys)), self.val])[first]
        for name, col in (("src", keys >> 32), ("tgt", keys & 0xFFFFFFFF), ("val", val)):
            object.__setattr__(self, name, col)

    @classmethod
    def from_seeds(cls, pairs: Iterable[tuple[int, int]]) -> "TruthScoreTable":
        """A table holding only the given pairs, pinned."""
        keys = np.unique(np.fromiter((s << 32 | t for s, t in pairs), np.int64))
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), keys)

    def pinned_mask(self) -> np.ndarray:
        """Which entries are pinned pairs; every pin is one of them."""
        mask = np.zeros(len(self.src), dtype=bool)
        mask[np.searchsorted(_pair_keys(self.src, self.tgt), self.pin_keys)] = True
        return mask

    def items(self) -> Iterable[tuple[int, int, float]]:
        """(source, target, score) in table order: ascending by source, then target."""
        return zip(self.src.tolist(), self.tgt.tolist(), self.val.tolist())

    def __len__(self) -> int:
        return len(self.src)


# ---------------------------------------------------------------------------
# Entity-score propagation (one sweep of unit-length rules)
# ---------------------------------------------------------------------------

# Most terms a sweep block expands before filtering; a larger entity is its own block.
# On a noisy 10k-entity pair, 2^16 swept faster than 2^14, 2^15 and 2^17,
# for under 1 MB more peak memory than 2^14; 2^17 added 3.5 MB.
SWEEP_BLOCK_TERMS = 1 << 16


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range index i and value of each element of ranges starts[i] + (0 .. counts[i])."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return owner, starts[owner] + np.arange(len(owner)) - offsets[owner]


def propagate_entity_scores(
    pair: KnowledgeGraphPair,
    eta_source: np.ndarray,
    eta_target: np.ndarray,
    psub: SubrelationTable,
    prev: TruthScoreTable,
) -> TruthScoreTable:
    """One synchronous sweep of unit-rule inference.

    For each candidate pair (e, e') — any pair with at least one matched
    neighbor pair already scored in ``prev`` — the new score is the
    noisy-OR

        1 - prod over matched triples ((e,d,e_t), (e',d',e_t')) of
            (1 - eta(d) * p_sub(d in d') * prev(e_t, e_t'))
          * (1 - eta(d') * p_sub(d' in d) * prev(e_t, e_t'))

    where eta is taken for the direction pointing back at the scored
    entity.  ``prev`` is read-only; the result is a fresh table with the
    observed pairs re-pinned at 1.

    The triples are joined as arrays, a block of source entities at a
    time.  Each product runs in source-edge, ``prev``-row (ascending
    target) and target-edge order, and the blocks emit their pairs in
    the table's key order.
    """
    adj_s = pair.source.directed_adj
    adj_t = pair.target.directed_adj
    n_rel_t = 2 * pair.target.n_relations
    # A term's two evidence strengths are w_fwd[d, d2] * v and w_bwd[d, d2] * v,
    # the very products (eta(d) * p_sub(d in d2)) * v and (eta(d2) * p_sub(d2 in d)) * v,
    # with eta(d) read at d ^ 1: a directed triple (e, d, e_t) supports e in proportion
    # to how uniquely e_t determines e, the functionality of the opposite direction.
    w_fwd = (eta_source[np.arange(len(eta_source)) ^ 1][:, None] * psub.source_in_target).ravel()
    w_bwd = (eta_target[np.arange(len(eta_target)) ^ 1][:, None] * psub.target_in_source).T.ravel()
    weighted = (w_fwd != 0.0) | (w_bwd != 0.0)
    src_rel = adj_s.rel * n_rel_t
    tgt_rel = adj_t.rel ^ 1  # directed triple (e2, d2, e_t2)

    # prev's entries, ascending by (source, target), are a CSR over source entities.
    n_s, n_t = pair.source.n_entities, pair.target.n_entities
    row_len = np.bincount(prev.src, minlength=n_s)
    row_start = np.cumsum(row_len) - row_len
    prev_tgt, prev_val = prev.tgt, prev.val

    # Terms per source edge, cumulated at entity boundaries, set the blocks.
    tgt_deg = np.diff(adj_t.indptr)
    per_row = np.bincount(prev.src, tgt_deg[prev_tgt], n_s)
    before = np.concatenate([[0], np.cumsum(per_row[adj_s.nbr])])[adj_s.indptr]
    edge_owner = np.repeat(np.arange(n_s), np.diff(adj_s.indptr))

    blocks = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    lo = 0
    while lo < n_s:
        hi = max(int(np.searchsorted(before, before[lo] + SWEEP_BLOCK_TERMS, "right")) - 1, lo + 1)
        edges = np.arange(adj_s.indptr[lo], adj_s.indptr[hi])
        lo = hi

        # Expand source edge x prev row entry x target edge.
        e_t = adj_s.nbr[edges]
        via_edge, entry = _ranges(row_start[e_t], row_len[e_t])
        e_t2 = prev_tgt[entry]
        via_entry, tgt_edge = _ranges(adj_t.indptr[e_t2], tgt_deg[e_t2])
        # A term whose relation pair carries no weight is 0 whatever its v.
        rel = src_rel[edges][via_edge][via_entry] + tgt_rel[tgt_edge]
        term = np.flatnonzero(weighted[rel])
        rel, v = rel[term], prev_val[entry[via_entry[term]]]
        s_fwd = w_fwd[rel] * v
        s_bwd = w_bwd[rel] * v

        # Group terms by (e, e'), keeping term order inside each group; the
        # groups come out by key, and the blocks by ascending source entity.
        key = edge_owner[edges][via_edge[via_entry[term]]] * n_t + adj_t.nbr[tgt_edge[term]]
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        factors = np.empty(2 * len(order))
        factors[0::2], factors[1::2] = 1.0 - s_fwd[order], 1.0 - s_bwd[order]
        score = 1.0 - np.multiply.reduceat(factors, 2 * first)
        emit = score > 0.0
        e, e2 = np.divmod(key[order[first[emit]]], n_t)
        blocks.append((e, e2, score[emit]))
    return TruthScoreTable(*(np.concatenate(col) for col in zip(*blocks)), prev.pin_keys)


def retain_best(table: TruthScoreTable, rho: float = 1.0) -> TruthScoreTable:
    """Lazy-retention pass: keep each entity's near-best counterparts.

    A pair survives when its score is within factor ``rho`` of the best
    score of its source row or of its target column (``rho = 1.0`` keeps
    argmax entries only; ties are all retained).  A best starts at 0, so
    a pair scored exactly 0 is kept too.  Pinned pairs always survive.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"retention factor must be in (0, 1], got {rho}")
    src, tgt, val = table.src, table.tgt, table.val
    if not len(src):
        return table
    row_best = np.zeros(src[-1] + 1)
    np.maximum.at(row_best, src, val)
    col_best = np.zeros(tgt.max() + 1)
    np.maximum.at(col_best, tgt, val)
    keep = table.pinned_mask() | (val >= rho * row_best[src]) | (val >= rho * col_best[tgt])
    return TruthScoreTable(src[keep], tgt[keep], val[keep], table.pin_keys)


def run_symbolic_inference(
    pair: KnowledgeGraphPair,
    eta_source: np.ndarray,
    eta_target: np.ndarray,
    psub: SubrelationTable,
    seeds: TruthScoreTable,
    sweeps: int,
    rho: float = 1.0,
) -> TruthScoreTable:
    """Run ``sweeps`` propagation passes with lazy retention in between.

    L sweeps score exactly the pairs derivable by composed relational
    rules of length <= L anchored at the scored pairs of ``seeds``.  The
    final table is returned unpruned; callers persisting it between
    phases should apply :func:`retain_best` themselves.
    """
    if sweeps < 1:
        raise ValueError(f"sweep count must be >= 1, got {sweeps}")
    table = seeds
    for i in range(sweeps):
        table = propagate_entity_scores(pair, eta_source, eta_target, psub, table)
        if i + 1 < sweeps:
            table = retain_best(table, rho)
    return table


# ---------------------------------------------------------------------------
# Subrelation probability re-estimation
# ---------------------------------------------------------------------------


def _estimate_one_way(
    kg_from: KnowledgeGraph,
    kg_to: KnowledgeGraph,
    edges_to: tuple[np.ndarray, np.ndarray],
    labels: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Estimate P(d implies d') for all directed d of ``kg_from`` as a (2R, 2R') array.

    ``labels`` holds (own entity, counterpart, value) arrays and must be
    one-to-one, and each graph's triples distinct.  A forward triple
    (u, v) of d whose ends both have counterparts (u', v') then weighs
    w = q(u) * q(v), the noisy-OR over its one counterpart pair.  It adds
    w to the denominator of d, and to the numerator of each d' joining
    (u', v') in ``kg_to``, at most once per d' as triples are distinct.
    Unlabeled ends read as 0, so their triples add nothing.  Sums run in
    triple order.  Inverse-direction entries mirror the forward ones,
    so only forward triples are walked.
    """
    n_rel_to = 2 * kg_to.n_relations
    own, other, val = labels
    match = np.zeros(kg_from.n_entities, dtype=np.int64)
    conf = np.zeros(kg_from.n_entities)
    match[own], conf[own] = other, val
    h, r, t = kg_from.triple_columns
    # 1 - (1 - x) rounds the product as the one-factor noisy-OR does.
    w = 1.0 - (1.0 - conf[h] * conf[t])
    ok = np.flatnonzero(w > 0.0)
    h, r, t, w = h[ok], r[ok], t[ok], w[ok]
    denominator = np.bincount(r, w, kg_from.n_relations)

    # Look each counterpart pair (u', v') up in kg_to's edge index, in key
    # order, which keeps the binary searches cache-friendly.
    pair_key = match[h] * kg_to.n_entities + match[t]
    by_key = np.argsort(pair_key)
    lo, hi = np.empty_like(by_key), np.empty_like(by_key)
    lo[by_key] = np.searchsorted(edges_to[0], pair_key[by_key])
    hi[by_key] = np.searchsorted(edges_to[0], pair_key[by_key], "right")
    tri, slot = _ranges(lo, hi - lo)
    # The numerators, summed into the forward rows d = 2r of the result.
    n_rel_from = 2 * kg_from.n_relations
    out = np.bincount(2 * r[tri] * n_rel_to + edges_to[1][slot], w[tri], n_rel_from * n_rel_to)
    out = out.astype(np.float64, copy=False).reshape(n_rel_from, n_rel_to)  # int64 when empty
    forward = out[0::2]
    forward[forward < PSUB_MIN_SUPPORT] = 0.0
    # A relation without support has no numerator either, and stays 0
    # even when PSUB_EPSILON is 0.
    supported = (denominator > 0.0)[:, None]
    np.divide(forward, (denominator + PSUB_EPSILON)[:, None], out=forward, where=supported)
    # A triple (u,v) of d with counterparts joined by d' is identically a
    # triple (v,u) of flip(d) with counterparts joined by flip(d').
    out[1::2, 0::2], out[1::2, 1::2] = forward[:, 1::2], forward[:, 0::2]
    return out


def update_subrelation_probs(
    pair: KnowledgeGraphPair, src: np.ndarray, tgt: np.ndarray, val: np.ndarray
) -> SubrelationTable:
    """Re-estimate both subrelation orientations from a one-to-one alignment.

    Label i says source entity ``src[i]`` matches target entity
    ``tgt[i]`` with confidence ``val[i]``; normally these are the
    observed pairs at 1 plus the round's other matches.  No source and
    no target may repeat, or a ``ValueError`` is raised; the labels may
    come in any order.  Both graphs' triples must be distinct, as ingest
    leaves them.  Estimates whose accumulated support falls below
    ``PSUB_MIN_SUPPORT`` are dropped; ``PSUB_EPSILON`` smooths the
    denominator against division by zero.  Both constants are read at
    call time.
    """
    if not is_one_to_one(src, tgt):
        raise ValueError("subrelation labels must be one-to-one: a source or target entity repeats")
    forward = _estimate_one_way(pair.source, pair.target, pair.edge_relations("target"), (src, tgt, val))
    backward = _estimate_one_way(pair.target, pair.source, pair.edge_relations("source"), (tgt, src, val))
    return SubrelationTable(source_in_target=forward, target_in_source=backward)


# ---------------------------------------------------------------------------
# Threshold split of a score table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ThresholdSplit:
    """The non-pinned pairs scored above the positive threshold.

    ``src``, ``tgt`` and ``val`` hold them in the truth table's order,
    ascending by (source, target).
    """

    src: np.ndarray
    tgt: np.ndarray
    val: np.ndarray

    @cached_property
    def positives(self) -> tuple[tuple[int, int, float], ...]:
        """The positives as (source, target, score) tuples, for readers outside the library."""
        return tuple(zip(self.src.tolist(), self.tgt.tolist(), self.val.tolist()))


def extract_positive_pairs(scores: TruthScoreTable, delta: float) -> ThresholdSplit:
    """The scored pairs above the threshold (score > delta), pinned pairs
    excluded; the rest of the table yields no label."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {delta}")
    keep = ~scores.pinned_mask() & (scores.val > delta)
    return ThresholdSplit(scores.src[keep], scores.tgt[keep], scores.val[keep])


def dump_truth_scores(table: TruthScoreTable, labels_source, labels_target) -> str:
    """Tab-separated dump ``e<TAB>e'<TAB>score`` (sorted, 6 decimals)."""
    lines = [
        f"{labels_source[s]}\t{labels_target[t]}\t{v:.6f}"
        for s, t, v in table.items()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_subrelations(
    psub: SubrelationTable, source: KnowledgeGraph, target: KnowledgeGraph
) -> tuple[str, str]:
    """Dumps of both orientations as ``r<TAB>r'<TAB>p_sub`` text, non-zero entries row-major.

    They are for people to read; nothing reads them back.  With relations ``r``
    and ``r^-1``, both ``r^-1`` and the inverse of ``r`` are written ``r^-1``."""

    def fmt(weights: np.ndarray, left: KnowledgeGraph, right: KnowledgeGraph) -> str:
        a, b = np.nonzero(weights)
        lines = [
            f"{left.directed_label(x)}\t{right.directed_label(y)}\t{p:.6f}"
            for x, y, p in zip(a.tolist(), b.tolist(), weights[a, b].tolist())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    return fmt(psub.source_in_target, source, target), fmt(
        psub.target_in_source, target, source
    )
