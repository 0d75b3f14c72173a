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
from typing import Iterable, Mapping

import numpy as np

from .graph import DirectedRelation, KnowledgeGraph, KnowledgeGraphPair

logger = logging.getLogger(__name__)

PSUB_EPSILON = 1e-9
PSUB_MIN_SUPPORT = 1e-6


class FunctionalityTable:
    """Per-directed-relation uniqueness ratios in (0, 1].

    For a base relation r, the forward entry is (distinct heads) /
    (distinct head-tail pairs) and the inverse entry (distinct tails) /
    (distinct head-tail pairs).  Relations without triples carry 0 and are
    reported as absent.
    """

    def __init__(self, values: np.ndarray):
        self.values = values  # indexed by packed directed relation id

    def __contains__(self, rel: DirectedRelation) -> bool:
        return self.values[rel.packed] > 0.0

    @property
    def reverse_values(self) -> np.ndarray:
        """Values re-indexed so position d holds eta(flip(d)).

        A directed triple (e, d, e_t) supports e's alignment in proportion
        to how uniquely the neighbor e_t determines e, which is the
        functionality of the opposite direction; the sweeps index this
        view directly by the traversed direction.
        """
        flipped = np.empty_like(self.values)
        flipped[0::2] = self.values[1::2]
        flipped[1::2] = self.values[0::2]
        return flipped


def compute_functionalities(kg: KnowledgeGraph) -> FunctionalityTable:
    """Count distinct endpoints per relation to get both directed ratios."""
    h, r, t = kg.triple_columns
    n_rel = kg.n_relations
    pairs = np.bincount(r, minlength=n_rel)  # triples are deduplicated: distinct (h, t)
    heads = np.bincount(np.unique(r * kg.n_entities + h) // kg.n_entities, minlength=n_rel)
    tails = np.bincount(np.unique(r * kg.n_entities + t) // kg.n_entities, minlength=n_rel)
    values = np.zeros(2 * n_rel, dtype=np.float64)
    has = pairs > 0
    values[0::2][has] = heads[has] / pairs[has]
    values[1::2][has] = tails[has] / pairs[has]
    return FunctionalityTable(values)


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


def _seed_keys(pinned: frozenset[tuple[int, int]]) -> np.ndarray:
    """The pinned pairs' keys, sorted."""
    return np.unique(np.fromiter((s << 32 | t for s, t in pinned), np.int64, len(pinned)))


def _lookup(keys: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in the sorted ``table`` and whether it is there."""
    if not len(table):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    at = np.searchsorted(table, keys)
    return at, table[np.minimum(at, len(table) - 1)] == keys


class TruthScoreTable:
    """Sparse (source entity, target entity) -> alignment probability table.

    The entries are three arrays grouped by row: ``src`` is
    non-decreasing, so each source entity's counterparts form one run of
    ``tgt`` and ``val``.  Within a row, entries keep the order they were
    made in: a sweep lists counterparts by first supporting term, then
    every pinned pair it did not emit, by ascending target; a table built
    from ``rows`` keeps each row's dict order.  Retention keeps that
    order, and the next sweep multiplies in it, so the within-row order
    is part of the bit-for-bit result.

    Observed seed pairs are pinned: they always score exactly 1 and no
    sweep or retention pass may alter or drop them.
    """

    def __init__(
        self,
        rows: Mapping[int, Mapping[int, float]] | None = None,
        pinned: frozenset[tuple[int, int]] = frozenset(),
    ):
        rows = rows if rows is not None else {}
        sources = sorted(rows)
        src = np.repeat(np.array(sources, dtype=np.int64), [len(rows[s]) for s in sources])
        tgt = np.fromiter((t for s in sources for t in rows[s]), np.int64, len(src))
        val = np.fromiter((v for s in sources for v in rows[s].values()), np.float64, len(src))
        self._hold(pinned, _seed_keys(pinned), src, tgt, val)

    @classmethod
    def from_seeds(cls, pairs: Iterable[tuple[int, int]]) -> "TruthScoreTable":
        return cls(pinned=frozenset(pairs))

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        tgt: np.ndarray,
        val: np.ndarray,
        pinned: frozenset[tuple[int, int]] = frozenset(),
    ) -> "TruthScoreTable":
        """Table of distinct (src, tgt) pairs, each row in the order given."""
        order = np.argsort(src, kind="stable")
        out = object.__new__(cls)
        out._hold(pinned, _seed_keys(pinned), src[order], tgt[order], val[order])
        return out

    def derive(self, src: np.ndarray, tgt: np.ndarray, val: np.ndarray) -> "TruthScoreTable":
        """A table with this one's pinned pairs over new row-grouped entries."""
        out = object.__new__(TruthScoreTable)
        out._hold(self.pinned, self._pin_keys, src, tgt, val)
        return out

    def _hold(
        self,
        pinned: frozenset[tuple[int, int]],
        pin_keys: np.ndarray,
        src: np.ndarray,
        tgt: np.ndarray,
        val: np.ndarray,
    ) -> None:
        """Keep row-grouped entries with every pinned pair at 1; missing ones close their row."""
        at, hit = _lookup(_pair_keys(src, tgt), pin_keys)
        val = np.where(hit, 1.0, val)
        missing = np.ones(len(pin_keys), dtype=bool)
        missing[at[hit]] = False
        if missing.any():
            extra = pin_keys[missing]
            src = np.concatenate([src, extra >> 32])
            tgt = np.concatenate([tgt, extra & 0xFFFFFFFF])
            val = np.concatenate([val, np.ones(len(extra))])
            order = np.argsort(src, kind="stable")
            src, tgt, val = src[order], tgt[order], val[order]
        self.pinned, self._pin_keys = pinned, pin_keys
        self.src, self.tgt, self.val = src, tgt, val

    def pinned_mask(self) -> np.ndarray:
        """Which entries are pinned pairs."""
        return _lookup(_pair_keys(self.src, self.tgt), self._pin_keys)[1]

    @property
    def rows(self) -> dict[int, dict[int, float]]:
        """The entries as a fresh ``{source: {target: score}}`` dict, in table order."""
        rows: dict[int, dict[int, float]] = {}
        for s, t, v in zip(self.src.tolist(), self.tgt.tolist(), self.val.tolist()):
            rows.setdefault(s, {})[t] = v
        return rows

    def score(self, source: int, target: int) -> float:
        lo, hi = np.searchsorted(self.src, [source, source + 1])
        hit = np.flatnonzero(self.tgt[lo:hi] == target)
        return float(self.val[lo + hit[0]]) if len(hit) else 0.0

    def items(self) -> Iterable[tuple[int, int, float]]:
        """(source, target, score) ascending by source, then target."""
        order = np.lexsort((self.tgt, self.src))
        return zip(self.src[order].tolist(), self.tgt[order].tolist(), self.val[order].tolist())

    def __len__(self) -> int:
        return len(self.src)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        lo, hi = np.searchsorted(self.src, [pair[0], pair[0] + 1])
        return bool((self.tgt[lo:hi] == pair[1]).any())


# ---------------------------------------------------------------------------
# Entity-score propagation (one sweep of unit-length rules)
# ---------------------------------------------------------------------------

# Most terms a sweep block expands before filtering; a larger entity is its own block.
SWEEP_BLOCK_TERMS = 1 << 14


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range index i and value of each element of ranges starts[i] + (0 .. counts[i])."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return owner, starts[owner] + np.arange(len(owner)) - offsets[owner]


def propagate_entity_scores(
    pair: KnowledgeGraphPair,
    eta_source: FunctionalityTable,
    eta_target: FunctionalityTable,
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
    time.  Each product runs in source-edge, ``prev``-row and target-edge
    order and each row lists counterparts by first term, so a sweep over
    its own output repeats the same arithmetic bit for bit.
    """
    adj_s = pair.source.directed_adj
    adj_t = pair.target.directed_adj
    n_rel_t = 2 * pair.target.n_relations
    # A term's two evidence strengths are w_fwd[d, d2] * v and w_bwd[d, d2] * v,
    # the very products (eta(d) * p_sub(d in d2)) * v and (eta(d2) * p_sub(d2 in d)) * v;
    # eta is indexed by traversed direction.
    w_fwd = (eta_source.reverse_values[:, None] * psub.source_in_target).ravel()
    w_bwd = (eta_target.reverse_values[:, None] * psub.target_in_source).T.ravel()
    weighted = (w_fwd != 0.0) | (w_bwd != 0.0)
    src_rel = adj_s.rel * n_rel_t
    tgt_rel = adj_t.rel ^ 1  # directed triple (e2, d2, e_t2)

    # prev's row-grouped entries are a CSR over source entities.
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
        keep = (s_fwd != 0.0) | (s_bwd != 0.0)
        term, s_fwd, s_bwd = term[keep], s_fwd[keep], s_bwd[keep]

        # Group terms by (e, e'), keeping term order inside each group.
        key = edge_owner[edges][via_edge[via_entry[term]]] * n_t + adj_t.nbr[tgt_edge[term]]
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        factors = np.empty(2 * len(order))
        factors[0::2], factors[1::2] = 1.0 - s_fwd[order], 1.0 - s_bwd[order]
        score = 1.0 - np.multiply.reduceat(factors, 2 * first)

        # Emit each row's counterparts in the order of their first term;
        # blocks and the terms inside them run by ascending source entity.
        emit = np.argsort(order[first])
        emit = emit[score[emit] > 0.0]
        e, e2 = np.divmod(key[order[first[emit]]], n_t)
        blocks.append((e, e2, score[emit]))
    return prev.derive(*(np.concatenate(col) for col in zip(*blocks)))


def retain_best(table: TruthScoreTable, rho: float = 1.0) -> TruthScoreTable:
    """Lazy-retention pass: keep each entity's near-best counterparts.

    A pair survives when its score is within factor ``rho`` of the best
    score of its source row or of its target column (``rho = 1.0`` keeps
    argmax entries only; ties are all retained).  A best starts at 0, so
    a pair scored exactly 0 is kept too.  Pinned pairs always survive,
    and the kept entries keep their order.
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
    return table.derive(src[keep], tgt[keep], val[keep])


def run_symbolic_inference(
    pair: KnowledgeGraphPair,
    eta_source: FunctionalityTable,
    eta_target: FunctionalityTable,
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
    eps: float,
    min_support: float,
) -> np.ndarray:
    """Estimate P(d implies d') for all directed d of ``kg_from`` as a (2R, 2R') array.

    For each directed triple (u, v) of d, the numerator term is the
    noisy-OR over counterpart pairs (u', v') that are themselves connected
    by d', and the denominator term the noisy-OR over all counterpart
    pairs whether connected or not.  Only labeled counterparts contribute
    (absent labels read as 0, i.e. factor 1).  Inverse-direction entries
    mirror the forward ones, so only forward triples are walked.

    ``labels`` holds (own entity, counterpart, value) arrays.  Each product
    runs in ascending counterpart order and each sum in triple order.
    """
    n_rel_to = 2 * kg_to.n_relations
    own, other, val = labels
    by_row = np.lexsort((other, own))
    other, val = other[by_row], val[by_row]
    row_len = np.bincount(own, minlength=kg_from.n_entities)
    row_start = np.cumsum(row_len) - row_len
    h, r, t = kg_from.triple_columns

    # Expand forward triple x label row at h x label row at t.
    via_h, at_h = _ranges(row_start[h], row_len[h])
    via_t, at_t = _ranges(row_start[t[via_h]], row_len[t[via_h]])
    triple, at_h = via_h[via_t], at_h[via_t]
    f = 1.0 - val[at_h] * val[at_t]
    n_terms = row_len[h] * row_len[t]
    den_term = np.zeros(len(h))
    has = np.flatnonzero(n_terms)
    den_term[has] = 1.0 - np.multiply.reduceat(f, (np.cumsum(n_terms) - n_terms)[has])
    ok = den_term > 0.0
    denominator = np.bincount(r[ok], den_term[ok], kg_from.n_relations)

    # Look each counterpart pair (u', v') of a kept triple up in kg_to's edge
    # index, in key order, which keeps the binary searches cache-friendly.
    kept = ok[triple]
    pair_key = other[at_h[kept]] * kg_to.n_entities + other[at_t[kept]]
    by_key = np.argsort(pair_key)
    lo, hi = np.empty_like(by_key), np.empty_like(by_key)
    lo[by_key] = np.searchsorted(edges_to[0], pair_key[by_key])
    hi[by_key] = np.searchsorted(edges_to[0], pair_key[by_key], "right")
    via_term, slot = _ranges(lo, hi - lo)

    # One noisy-OR per (triple, d'), then numerators summed in triple order.
    group = triple[kept][via_term] * n_rel_to + edges_to[1][slot]
    order = np.argsort(group, kind="stable")
    first = np.flatnonzero(np.diff(group[order], prepend=-1))
    tri, d2 = np.divmod(group[order][first], n_rel_to)
    keys, where = np.unique(2 * r[tri] * n_rel_to + d2, return_inverse=True)
    numerator = np.bincount(where, 1.0 - np.multiply.reduceat(f[kept][via_term][order], first))

    keep = numerator >= min_support
    d, d2 = np.divmod(keys[keep], n_rel_to)
    out = np.zeros((2 * kg_from.n_relations, n_rel_to))
    out[d, d2] = numerator[keep] / (denominator[d >> 1] + eps)
    # A triple (u,v) of d with counterparts joined by d' is identically a
    # triple (v,u) of flip(d) with counterparts joined by flip(d').
    out[d ^ 1, d2 ^ 1] = out[d, d2]
    return out


def update_subrelation_probs(
    pair: KnowledgeGraphPair,
    labels: TruthScoreTable,
    eps: float = PSUB_EPSILON,
    min_support: float = PSUB_MIN_SUPPORT,
) -> SubrelationTable:
    """Re-estimate both subrelation orientations from labeled pairs.

    ``labels`` normally holds the observed pairs at 1 plus the current
    pseudo-labels with their confidences.  Entries whose accumulated
    support falls below ``min_support`` are dropped; ``eps`` smooths the
    denominator against division by zero.
    """
    src, tgt, v = labels.src, labels.tgt, labels.val
    forward = _estimate_one_way(
        pair.source, pair.target, pair.edge_relations("target"), (src, tgt, v), eps, min_support
    )
    backward = _estimate_one_way(
        pair.target, pair.source, pair.edge_relations("source"), (tgt, src, v), eps, min_support
    )
    return SubrelationTable(source_in_target=forward, target_in_source=backward)


# ---------------------------------------------------------------------------
# Threshold split of a score table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ThresholdSplit:
    """Scored non-pinned pairs split at the positive threshold.

    ``src``, ``tgt`` and ``val`` hold the non-pinned entries ascending by
    (source, target), and ``positive`` marks those above the threshold.
    """

    src: np.ndarray
    tgt: np.ndarray
    val: np.ndarray
    positive: np.ndarray

    @property
    def positive_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positives as source, target and score arrays."""
        return self.src[self.positive], self.tgt[self.positive], self.val[self.positive]

    @property
    def negative_pairs(self) -> np.ndarray:
        """The negative pool as an ``(n, 2)`` array of (source, target) rows."""
        return np.stack([self.src[~self.positive], self.tgt[~self.positive]], axis=1)

    @cached_property
    def positives(self) -> tuple[tuple[int, int, float], ...]:
        """The positives as (source, target, score) tuples, for readers outside the library."""
        return tuple(zip(*(col.tolist() for col in self.positive_columns)))


def extract_positive_pairs(scores: TruthScoreTable, delta: float) -> ThresholdSplit:
    """Split scored pairs into positives (score > delta) and a negative pool.

    Pinned pairs are excluded from both sides; every scored-but-not-
    positive pair lands in the negative pool, which the embedding
    trainer uses for hard negative sampling.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {delta}")
    free = ~scores.pinned_mask()
    src, tgt, val = scores.src[free], scores.tgt[free], scores.val[free]
    order = np.lexsort((tgt, src))
    src, tgt, val = src[order], tgt[order], val[order]
    return ThresholdSplit(src, tgt, val, val > delta)


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
    """Dumps of both orientations as ``r<TAB>r'<TAB>p_sub`` text, non-zero entries row-major."""

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
