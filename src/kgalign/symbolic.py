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
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping

import numpy as np

from .graph import (
    DirectedRelation,
    KnowledgeGraph,
    KnowledgeGraphPair,
    flip_packed,
)

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
    heads: list[set[int]] = [set() for _ in range(kg.n_relations)]
    tails: list[set[int]] = [set() for _ in range(kg.n_relations)]
    pairs = np.zeros(kg.n_relations, dtype=np.int64)
    for h, r, t in kg.triples:
        heads[r].add(h)
        tails[r].add(t)
        pairs[r] += 1  # triples are deduplicated, so each is a distinct (h, t)
    values = np.zeros(2 * kg.n_relations, dtype=np.float64)
    for r in range(kg.n_relations):
        if pairs[r]:
            values[2 * r] = len(heads[r]) / pairs[r]
            values[2 * r + 1] = len(tails[r]) / pairs[r]
    return FunctionalityTable(values)


class SubrelationTable:
    """Directed subrelation probabilities between the two graphs.

    Both orientations are stored: ``source_in_target[(d, d')]`` estimates
    P(d implies d') for a directed relation d of the source graph and d'
    of the target graph, and ``target_in_source[(d', d)]`` the converse.
    Absent entries read as 0.
    """

    def __init__(
        self,
        source_in_target: Mapping[tuple[int, int], float] | None = None,
        target_in_source: Mapping[tuple[int, int], float] | None = None,
    ):
        self.source_in_target: dict[tuple[int, int], float] = dict(source_in_target or {})
        self.target_in_source: dict[tuple[int, int], float] = dict(target_in_source or {})

    def sub(self, d: int, d_prime: int) -> float:
        """P(source directed relation d is a subrelation of target d')."""
        return self.source_in_target.get((d, d_prime), 0.0)

    def sup(self, d_prime: int, d: int) -> float:
        """P(target directed relation d' is a subrelation of source d)."""
        return self.target_in_source.get((d_prime, d), 0.0)

    def __len__(self) -> int:
        return len(self.source_in_target) + len(self.target_in_source)


class TruthScoreTable:
    """Sparse (source entity, target entity) -> alignment probability map.

    Observed seed pairs are pinned: they always score exactly 1 and no
    sweep or retention pass may alter or drop them.
    """

    def __init__(
        self,
        rows: dict[int, dict[int, float]] | None = None,
        pinned: frozenset[tuple[int, int]] = frozenset(),
    ):
        self.rows: dict[int, dict[int, float]] = rows if rows is not None else {}
        self.pinned = pinned
        for s, t in pinned:
            self.rows.setdefault(s, {})[t] = 1.0

    @classmethod
    def from_seeds(cls, pairs: Iterable[tuple[int, int]]) -> "TruthScoreTable":
        return cls(pinned=frozenset(pairs))

    def score(self, source: int, target: int) -> float:
        return self.rows.get(source, {}).get(target, 0.0)

    def counterparts(self, source: int) -> dict[int, float]:
        return self.rows.get(source, {})

    def items(self) -> Iterable[tuple[int, int, float]]:
        for s in sorted(self.rows):
            row = self.rows[s]
            for t in sorted(row):
                yield s, t, row[t]

    def nonpinned_items(self) -> Iterable[tuple[int, int, float]]:
        for s, t, v in self.items():
            if (s, t) not in self.pinned:
                yield s, t, v

    def __len__(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        s, t = pair
        return t in self.rows.get(s, {})


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


def _dense(entries: Mapping[tuple[int, int], float], shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape)
    for key, v in entries.items():
        out[key] = v
    return out


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
    eta_s = eta_source.reverse_values  # indexed by traversed direction
    eta_t = eta_target.reverse_values
    shape = (2 * pair.source.n_relations, 2 * pair.target.n_relations)
    sub = _dense(psub.source_in_target, shape)
    sup = _dense(psub.target_in_source, shape[::-1])

    # prev as CSR over source entities, each row in its dict order.
    n_s, n_t = pair.source.n_entities, pair.target.n_entities
    scored = sorted(prev.rows)
    row_len = np.zeros(n_s, dtype=np.int64)
    row_len[scored] = [len(prev.rows[e_t]) for e_t in scored]
    row_start = np.cumsum(row_len) - row_len
    prev_tgt = np.array([t for e_t in scored for t in prev.rows[e_t]], dtype=np.int64)
    prev_val = np.array([v for e_t in scored for v in prev.rows[e_t].values()], dtype=np.float64)

    # Terms per source edge, cumulated at entity boundaries, set the blocks.
    tgt_deg = np.diff(adj_t.indptr)
    per_row = np.bincount(np.repeat(np.arange(n_s), row_len), tgt_deg[prev_tgt], n_s)
    before = np.concatenate([[0], np.cumsum(per_row[adj_s.nbr])])[adj_s.indptr]
    edge_owner = np.repeat(np.arange(n_s), np.diff(adj_s.indptr))

    rows: dict[int, dict[int, float]] = {}
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
        src_edge = edges[via_edge[via_entry]]
        d = adj_s.rel[src_edge]
        d2 = adj_t.rel[tgt_edge] ^ 1  # directed triple (e2, d2, e_t2)
        v = prev_val[entry[via_entry]]
        s_fwd = eta_s[d] * sub[d, d2] * v
        s_bwd = eta_t[d2] * sup[d2, d] * v
        keep = (s_fwd != 0.0) | (s_bwd != 0.0)

        # Group terms by (e, e'), keeping term order inside each group.
        key = edge_owner[src_edge[keep]] * n_t + adj_t.nbr[tgt_edge[keep]]
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        factors = np.stack([1.0 - s_fwd[keep], 1.0 - s_bwd[keep]], axis=1)[order].ravel()
        score = 1.0 - np.multiply.reduceat(factors, 2 * first)

        # Emit each row's counterparts in the order of their first term.
        emit = np.argsort(order[first])
        emit = emit[score[emit] > 0.0]
        e, e2 = divmod(key[order[first[emit]]], n_t)
        for row, terms in groupby(zip(e.tolist(), e2.tolist(), score[emit].tolist()), itemgetter(0)):
            rows[row] = {t: val for _, t, val in terms}
    return TruthScoreTable(rows=rows, pinned=prev.pinned)


def retain_best(table: TruthScoreTable, rho: float = 1.0) -> TruthScoreTable:
    """Lazy-retention pass: keep each entity's near-best counterparts.

    A pair survives when its score is within factor ``rho`` of the best
    score of its source row or of its target column (``rho = 1.0`` keeps
    argmax entries only; ties are all retained).  Pinned pairs always
    survive.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"retention factor must be in (0, 1], got {rho}")
    row_best: dict[int, float] = {}
    col_best: dict[int, float] = {}
    for s, row in table.rows.items():
        for t, v in row.items():
            if v > row_best.get(s, 0.0):
                row_best[s] = v
            if v > col_best.get(t, 0.0):
                col_best[t] = v
    rows: dict[int, dict[int, float]] = {}
    for s, row in table.rows.items():
        kept = {
            t: v
            for t, v in row.items()
            if (s, t) in table.pinned or v >= rho * row_best[s] or v >= rho * col_best[t]
        }
        if kept:
            rows[s] = kept
    return TruthScoreTable(rows=rows, pinned=table.pinned)


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
    edges_to: dict[tuple[int, int], tuple[int, ...]],
    labels_by_from: dict[int, dict[int, float]],
    eps: float,
    min_support: float,
) -> dict[tuple[int, int], float]:
    """Estimate P(d implies d') for all directed d of ``kg_from``.

    For each directed triple (u, v) of d, the numerator term is the
    noisy-OR over counterpart pairs (u', v') that are themselves connected
    by d', and the denominator term the noisy-OR over all counterpart
    pairs whether connected or not.  Only labeled counterparts contribute
    (absent labels read as 0, i.e. factor 1).  Inverse-direction entries
    mirror the forward ones, so only forward triples are walked.
    """
    numerators: dict[tuple[int, int], float] = {}
    denominators: dict[int, float] = {}

    for h, r, t in kg_from.triples:
        row_h = labels_by_from.get(h)
        row_t = labels_by_from.get(t)
        if not row_h or not row_t:
            continue
        d_fwd = 2 * r
        # Factor products per reachable counterpart relation, this triple.
        connected: dict[int, float] = {}
        miss = 1.0
        for h2 in sorted(row_h):
            v_h = row_h[h2]
            for t2 in sorted(row_t):
                f = 1.0 - v_h * row_t[t2]
                miss *= f
                for d2 in edges_to.get((h2, t2), ()):
                    connected[d2] = connected.get(d2, 1.0) * f
        den_term = 1.0 - miss
        if den_term <= 0.0:
            continue
        denominators[d_fwd] = denominators.get(d_fwd, 0.0) + den_term
        for d2, prod in connected.items():
            key = (d_fwd, d2)
            numerators[key] = numerators.get(key, 0.0) + (1.0 - prod)

    result: dict[tuple[int, int], float] = {}
    for (d, d2), num in numerators.items():
        if num < min_support:
            continue
        p = num / (denominators[d] + eps)
        result[(d, d2)] = p
        # A triple (u,v) of d with counterparts joined by d' is identically a
        # triple (v,u) of flip(d) with counterparts joined by flip(d').
        result[(flip_packed(d), flip_packed(d2))] = p
    return result


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
    labels_by_target: dict[int, dict[int, float]] = {}
    for s, row in labels.rows.items():
        for t, v in row.items():
            labels_by_target.setdefault(t, {})[s] = v

    forward = _estimate_one_way(
        pair.source, pair.edge_relations("target"), labels.rows, eps, min_support
    )
    backward = _estimate_one_way(
        pair.target, pair.edge_relations("source"), labels_by_target, eps, min_support
    )
    return SubrelationTable(source_in_target=forward, target_in_source=backward)


# ---------------------------------------------------------------------------
# Threshold split of a score table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSplit:
    """Scored non-pinned pairs split at the positive threshold."""

    positives: tuple[tuple[int, int, float], ...]
    negatives: tuple[tuple[int, int, float], ...]


def extract_positive_pairs(scores: TruthScoreTable, delta: float) -> ThresholdSplit:
    """Split scored pairs into positives (score > delta) and a negative pool.

    Pinned pairs are excluded from both sides; every scored-but-not-
    positive pair lands in the negative pool, which the embedding
    trainer uses for hard negative sampling.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {delta}")
    positives: list[tuple[int, int, float]] = []
    negatives: list[tuple[int, int, float]] = []
    for s, t, v in scores.nonpinned_items():
        if v > delta:
            positives.append((s, t, v))
        else:
            negatives.append((s, t, v))
    return ThresholdSplit(positives=tuple(positives), negatives=tuple(negatives))


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
    """Dumps of both orientations as ``r<TAB>r'<TAB>p_sub`` text."""

    def fmt(entries: dict[tuple[int, int], float], left: KnowledgeGraph, right: KnowledgeGraph) -> str:
        lines = [
            f"{left.directed_label(a)}\t{right.directed_label(b)}\t{entries[(a, b)]:.6f}"
            for a, b in sorted(entries)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    return fmt(psub.source_in_target, source, target), fmt(
        psub.target_in_source, target, source
    )
