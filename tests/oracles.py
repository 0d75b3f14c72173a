"""Independent brute-force references for the probabilistic math.

Everything here recomputes the definitions literally: dense loops over
all entity pairs, per-relation counting without shared tables, and
product-graph walks for rule enumeration.  Nothing imports the engine's
table types beyond plain graphs (the propagation reference takes the
embedder's label type and step weight, the explain loop the explainer's
result type and exhaustive walk enumeration, the ingest loops and the
dataset writer the data module's file names, error and bundle types,
the M-step loop the engine's re-estimation call, and the table helpers
convert between dict rows and the engine's truth table without
computing anything), so agreement with the engine is evidence rather
than tautology.

Direction convention used throughout: each triple (h, r, t) is doubled
into directed triples (h, 2r, t) and (t, 2r+1, h).  The functionality
of a directed relation is its count of distinct second endpoints over
its count of directed pairs, which for the forward direction is the
distinct-tail ratio.  Subrelation tables are expected to be mirror
symmetric (p(d in d') equals p(flip d in flip d')), which the engine's
estimator guarantees and hand-built test tables must respect.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from kgalign.data import LINKS_FILE, TRIPLE_FILES, DatasetBundle, DatasetError
from kgalign.embedder import TELEPORT, PseudoLabelSet
from kgalign.explain import RuleExplanation
from kgalign.graph import DirectedAdjacency, IngestError, KnowledgeGraph, KnowledgeGraphPair
from kgalign.symbolic import TruthScoreTable, update_subrelation_probs


def triple_tuples(kg: KnowledgeGraph) -> tuple[tuple[int, int, int], ...]:
    """A graph's (h, r, t) id rows as tuples, in triple order."""
    return tuple(zip(*(col.tolist() for col in kg.triple_columns)))


def directed_triples(kg: KnowledgeGraph) -> list[tuple[int, int, int]]:
    out = []
    for h, r, t in triple_tuples(kg):
        out.append((h, 2 * r, t))
        out.append((t, 2 * r + 1, h))
    return out


def directed_pairs(kg: KnowledgeGraph, d: int) -> list[tuple[int, int]]:
    return [(u, v) for u, dd, v in directed_triples(kg) if dd == d]


def brute_functionality(kg: KnowledgeGraph, d: int) -> float:
    """Distinct second endpoints over directed pairs; 0 without triples."""
    pairs = directed_pairs(kg, d)
    if not pairs:
        return 0.0
    return len({v for _, v in pairs}) / len(pairs)


def brute_functionalities(kg: KnowledgeGraph) -> dict[int, float]:
    return {d: brute_functionality(kg, d) for d in range(2 * kg.n_relations)}


def uniqueness_eta(kg: KnowledgeGraph, d: int) -> float:
    """Evidence strength of a directed relation: distinct second
    endpoints over directed pairs.

    When this ratio is high, the second endpoint of a directed triple
    (u, d, v) nearly determines u, so sharing an aligned v is strong
    evidence for aligning u.  The engine's table stores the ratio of
    distinct first endpoints at index d, so this equals
    ``compute_functionalities(kg)[d ^ 1]``.
    """
    return brute_functionality(kg, d)


def brute_propagate(
    pair: KnowledgeGraphPair,
    sub: dict[tuple[int, int], float],
    sup: dict[tuple[int, int], float],
    prev: dict[tuple[int, int], float],
    pinned: frozenset[tuple[int, int]] = frozenset(),
) -> dict[tuple[int, int], float]:
    """One dense sweep: the noisy-OR aggregation evaluated for every pair.

    For candidate (e, e') and every matched directed-triple pair
    ((e, d, e_t), (e', d', e_t')), the miss product picks up

        (1 - eta(d) * p_sub(d in d') * prev[e_t, e_t'])
        * (1 - eta(d') * p_sub(d' in d) * prev[e_t, e_t'])

    with eta as the distinct-second-endpoint ratio.  Pairs scoring 0 are omitted;
    pinned pairs read 1 regardless.
    """
    src_triples = directed_triples(pair.source)
    tgt_triples = directed_triples(pair.target)
    eta_s = {d: uniqueness_eta(pair.source, d) for d in range(2 * pair.source.n_relations)}
    eta_t = {d: uniqueness_eta(pair.target, d) for d in range(2 * pair.target.n_relations)}

    out: dict[tuple[int, int], float] = {}
    for e in range(pair.source.n_entities):
        own = [(d, et) for u, d, et in src_triples if u == e]
        for e2 in range(pair.target.n_entities):
            own2 = [(d2, et2) for u, d2, et2 in tgt_triples if u == e2]
            miss = 1.0
            for d, et in own:
                for d2, et2 in own2:
                    v = prev.get((et, et2), 0.0)
                    if v == 0.0:
                        continue
                    miss *= 1.0 - eta_s[d] * sub.get((d, d2), 0.0) * v
                    miss *= 1.0 - eta_t[d2] * sup.get((d2, d), 0.0) * v
            score = 1.0 - miss
            if score > 0.0:
                out[(e, e2)] = score
    for p in pinned:
        out[p] = 1.0
    return out


def loop_propagate(
    pair: KnowledgeGraphPair,
    eta_source,
    eta_target,
    sub: dict[tuple[int, int], float],
    sup: dict[tuple[int, int], float],
    prev_rows: dict[int, dict[int, float]],
) -> dict[int, dict[int, float]]:
    """One sweep as a per-term dict loop, in the engine's term order.

    Walks, for every source entity e in id order, its adjacency in graph
    order, then each scored counterpart row of the neighbor in dict
    order (ascending target, as ``table_rows`` gives it), then the
    counterpart's adjacency, multiplying each candidate's miss product
    term by term.  ``eta_*`` are the functionality arrays, read at the
    flipped direction ``d ^ 1`` of each traversed direction d.  The array
    sweep must match every value bit for bit; rows list counterparts by
    first supporting term, so compare them sorted by target.
    """

    out: dict[int, dict[int, float]] = {}
    for e in range(pair.source.n_entities):
        survivors: dict[int, float] = {}
        for d, e_t in pair.source.neighbors(e):
            row = prev_rows.get(e_t)
            if not row:
                continue
            eta_d = eta_source[d ^ 1]
            for e_t2, v in row.items():
                for d2_raw, e2 in pair.target.neighbors(e_t2):
                    d2 = d2_raw ^ 1  # directed triple (e2, d2, e_t2)
                    s_fwd = eta_d * sub.get((d, d2), 0.0) * v
                    s_bwd = eta_target[d2 ^ 1] * sup.get((d2, d), 0.0) * v
                    if s_fwd == 0.0 and s_bwd == 0.0:
                        continue
                    acc = survivors.get(e2, 1.0)
                    survivors[e2] = acc * (1.0 - s_fwd) * (1.0 - s_bwd)
        row_out = {t: 1.0 - f for t, f in survivors.items() if 1.0 - f > 0.0}
        if row_out:
            out[e] = row_out
    return out


def loop_functionalities(kg: KnowledgeGraph) -> np.ndarray:
    """Functionality values by packed direction from per-relation Python sets.

    Index 2r holds (distinct heads) / (triples of r), index 2r + 1
    (distinct tails) / (triples of r); relations without triples hold 0.
    """
    heads: list[set[int]] = [set() for _ in range(kg.n_relations)]
    tails: list[set[int]] = [set() for _ in range(kg.n_relations)]
    pairs = np.zeros(kg.n_relations, dtype=np.int64)
    for h, r, t in triple_tuples(kg):
        heads[r].add(h)
        tails[r].add(t)
        pairs[r] += 1
    values = np.zeros(2 * kg.n_relations, dtype=np.float64)
    for r in range(kg.n_relations):
        if pairs[r]:
            values[2 * r] = len(heads[r]) / pairs[r]
            values[2 * r + 1] = len(tails[r]) / pairs[r]
    return values


def loop_retain(
    rows: dict[int, dict[int, float]],
    pinned: frozenset[tuple[int, int]],
    rho: float,
) -> dict[int, dict[int, float]]:
    """Retention as a dict loop: a pair stays when pinned or within factor
    ``rho`` of its row's or its column's best score, each best starting
    at 0.  Kept entries keep their input order."""
    row_best: dict[int, float] = {}
    col_best: dict[int, float] = {}
    for s, row in rows.items():
        for t, v in row.items():
            if v > row_best.get(s, 0.0):
                row_best[s] = v
            if v > col_best.get(t, 0.0):
                col_best[t] = v
    out: dict[int, dict[int, float]] = {}
    for s, row in rows.items():
        kept = {
            t: v
            for t, v in row.items()
            if (s, t) in pinned or v >= rho * row_best.get(s, 0.0) or v >= rho * col_best.get(t, 0.0)
        }
        if kept:
            out[s] = kept
    return out


def loop_extract(
    rows: dict[int, dict[int, float]],
    pinned: frozenset[tuple[int, int]],
    delta: float,
) -> list[tuple[int, int, float]]:
    """Non-pinned (s, t, score) entries scoring above ``delta``, ascending
    by (s, t)."""
    positives: list[tuple[int, int, float]] = []
    for s in sorted(rows):
        for t in sorted(rows[s]):
            if (s, t) not in pinned and rows[s][t] > delta:
                positives.append((s, t, rows[s][t]))
    return positives


def loop_rank(model, e: int, candidates: Sequence[int]) -> list[int]:
    """All candidates by descending cosine with source e, ties by
    ascending target id, from one matrix-vector product for this source
    alone.  The batched ranking must equal a prefix of this list.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set must be non-empty")
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    u = model.ent_source[e]
    u = u / max(np.linalg.norm(u), 1e-12)
    mat = model.ent_target[cand]
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    scores = np.clip(mat @ u, -1.0, 1.0)
    order = np.lexsort((cand, -scores))
    return [int(c) for c in cand[order]]


def brute_subrelation(
    pair: KnowledgeGraphPair,
    labels: dict[tuple[int, int], float],
    eps: float = 1e-9,
    min_support: float = 1e-6,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Dense evaluation of the subrelation update, both orientations.

    numerator(d, d') sums, over directed pairs (u, v) of d, the noisy-OR
    of label products across the directed pairs of d'; the denominator
    replaces d' by the full counterpart-pair grid.
    """

    def one_way(kg_a: KnowledgeGraph, kg_b: KnowledgeGraph, lab) -> dict[tuple[int, int], float]:
        n_b = kg_b.n_entities
        result: dict[tuple[int, int], float] = {}
        for d in range(2 * kg_a.n_relations):
            pairs_a = directed_pairs(kg_a, d)
            if not pairs_a:
                continue
            denominator = 0.0
            for u, v in pairs_a:
                grid = 1.0
                for u2 in range(n_b):
                    for v2 in range(n_b):
                        grid *= 1.0 - lab(u, u2) * lab(v, v2)
                denominator += 1.0 - grid
            for d2 in range(2 * kg_b.n_relations):
                pairs_b = directed_pairs(kg_b, d2)
                if not pairs_b:
                    continue
                numerator = 0.0
                for u, v in pairs_a:
                    prod = 1.0
                    for u2, v2 in pairs_b:
                        prod *= 1.0 - lab(u, u2) * lab(v, v2)
                    numerator += 1.0 - prod
                if numerator >= min_support:
                    result[(d, d2)] = numerator / (denominator + eps)
        return result

    forward = one_way(pair.source, pair.target, lambda s, t: labels.get((s, t), 0.0))
    backward = one_way(pair.target, pair.source, lambda t, s: labels.get((s, t), 0.0))
    return forward, backward


def loop_subrelation(
    pair: KnowledgeGraphPair,
    label_rows: dict[int, dict[int, float]],
    eps: float = 1e-9,
    min_support: float = 1e-6,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """The subrelation update as a per-triple dict loop, both orientations.

    Walks the forward triples in graph order and, per triple, the product
    of its two label rows in ascending counterpart order, looking each
    counterpart pair up in a dict edge index.  Numerators and
    denominators accumulate in triple order.  The array estimator must
    match this bit for bit; a key whose numerator sums to 0 matches a 0
    entry of its array.
    """

    def edge_index(kg: KnowledgeGraph) -> dict[tuple[int, int], tuple[int, ...]]:
        edges: dict[tuple[int, int], list[int]] = {}
        for h, r, t in triple_tuples(kg):
            edges.setdefault((h, t), []).append(2 * r)
            edges.setdefault((t, h), []).append(2 * r + 1)
        return {k: tuple(sorted(v)) for k, v in edges.items()}

    def one_way(kg_from: KnowledgeGraph, edges_to, labels_by_from) -> dict[tuple[int, int], float]:
        numerators: dict[tuple[int, int], float] = {}
        denominators: dict[int, float] = {}
        for h, r, t in triple_tuples(kg_from):
            row_h = labels_by_from.get(h)
            row_t = labels_by_from.get(t)
            if not row_h or not row_t:
                continue
            d_fwd = 2 * r
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
            result[(d ^ 1, d2 ^ 1)] = p
        return result

    by_target: dict[int, dict[int, float]] = {}
    for s, row in label_rows.items():
        for t, v in row.items():
            by_target.setdefault(t, {})[s] = v
    forward = one_way(pair.source, edge_index(pair.target), label_rows)
    backward = one_way(pair.target, edge_index(pair.source), by_target)
    return forward, backward


def joint_reachable(
    pair: KnowledgeGraphPair,
    seeds: set[tuple[int, int]],
    sub: dict[tuple[int, int], float],
    sup: dict[tuple[int, int], float],
    max_len: int,
) -> set[tuple[int, int]]:
    """Pairs derivable by equal-length rule paths of length <= max_len.

    Walks the product graph outward from the seed pairs: one joint step
    goes from (x, y) to (x2, y2) whenever directed triples (x2, d, x)
    and (y2, d', y) exist with a positive unit deduction factor, i.e.
    p_sub(d in d') or p_sub(d' in d) positive (functionalities of
    existing relations are always positive).  Seeds themselves are
    included.
    """
    adj_s: dict[int, list[tuple[int, int]]] = {}
    for u, d, v in directed_triples(pair.source):
        adj_s.setdefault(v, []).append((d, u))  # step v -> u deduces u from v
    adj_t: dict[int, list[tuple[int, int]]] = {}
    for u, d, v in directed_triples(pair.target):
        adj_t.setdefault(v, []).append((d, u))

    reached = set(seeds)
    frontier = set(seeds)
    for _ in range(max_len):
        nxt: set[tuple[int, int]] = set()
        for x, y in frontier:
            for d, x2 in adj_s.get(x, ()):
                for d2, y2 in adj_t.get(y, ()):
                    if sub.get((d, d2), 0.0) > 0.0 or sup.get((d2, d), 0.0) > 0.0:
                        if (x2, y2) not in reached:
                            nxt.add((x2, y2))
        reached |= nxt
        frontier = nxt
    return reached


def rule_confidence(
    pair: KnowledgeGraphPair,
    source_rels: list[int],
    target_rels: list[int],
    sub: dict[tuple[int, int], float],
    sup: dict[tuple[int, int], float],
) -> float:
    """Rule weight for two relation chains written query-to-anchor.

    Product over steps of eta(d) * eta(d') * (p(d in d') + p(d' in d))/2
    with eta as the distinct-second-endpoint ratio.
    """
    if len(source_rels) != len(target_rels):
        return 0.0
    w = 1.0
    for d, d2 in zip(source_rels, target_rels):
        w *= (
            uniqueness_eta(pair.source, d)
            * uniqueness_eta(pair.target, d2)
            * (sub.get((d, d2), 0.0) + sup.get((d2, d), 0.0))
            / 2.0
        )
    return w


def dense_propagate(model, pair: KnowledgeGraphPair, positives) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Anchor propagation with dense matrices: source features, target
    features and the per-step L1 changes, leaving ``model`` untouched.

    The anchor vectors come from a copy of ``model.rng``, through LAPACK's
    Householder QR with each column of Q signed so that R's diagonal is
    positive, which makes the thin Q unique.  Each graph's
    adjacency is a dense matrix with one count per triple endpoint pair in
    both directions, parallel edges and self-loops included, divided by
    its row sums; each step is one product with it.
    """
    sets = [positives] if isinstance(positives, PseudoLabelSet) else list(positives)
    src = np.concatenate([ls.src for ls in sets])
    tgt = np.concatenate([ls.tgt for ls in sets])
    conf = np.concatenate([ls.conf for ls in sets])
    n, d, steps = len(conf), model.hyperparams.dim, model.hyperparams.epochs
    q, r = np.linalg.qr(copy.deepcopy(model.rng).normal(size=(max(n, d), min(n, d))))
    q = q * np.sign(np.diag(r))
    anchors = conf[:, None] * (q.T if n <= d else q)
    losses = np.zeros(steps)
    features = []
    for ids, kg in ((src, pair.source), (tgt, pair.target)):
        m = kg.n_entities
        adj = np.zeros((m, m))
        for h, _, t in zip(*(col.tolist() for col in kg.triple_columns)):
            adj[h, t] += 1.0
            adj[t, h] += 1.0
        degree = adj.sum(axis=1, keepdims=True)
        adj = np.divide(adj, degree, out=np.zeros_like(adj), where=degree > 0)
        x = np.eye(m)[:, ids] @ anchors
        z = x
        for step in range(steps):
            nxt = (1.0 - TELEPORT) * (adj @ z) + TELEPORT * x
            losses[step] += np.abs(nxt - z).sum()
            z = nxt
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        features.append(np.divide(z, norms, out=np.zeros_like(z), where=norms > 0))
    return features[0], features[1], losses.tolist()


def sorted_greedy(scored_pairs: Iterable[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Greedy one-to-one over the offers in (-score, source, target) order
    from one Python key sort; returns the accepted (s, t, score) list."""
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    accepted: list[tuple[int, int, float]] = []
    for s, t, v in sorted(scored_pairs, key=lambda p: (-p[2], p[0], p[1])):
        if s in used_src or t in used_tgt:
            continue
        used_src.add(s)
        used_tgt.add(t)
        accepted.append((s, t, v))
    return accepted


def dense_cosines(model, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """The whole sources x targets matrix of clipped cosines, from one
    product of the unit rows; a zero row scores 0."""
    smat, tmat = model.ent_source[list(sources)], model.ent_target[list(targets)]
    smat = smat / np.maximum(np.linalg.norm(smat, axis=1, keepdims=True), 1e-12)
    tmat = tmat / np.maximum(np.linalg.norm(tmat, axis=1, keepdims=True), 1e-12)
    return np.clip(smat @ tmat.T, -1.0, 1.0)


def loop_mutual_nearest(model, sources: Sequence[int], targets: Sequence[int]) -> list[tuple[int, int, float]]:
    """The mutual nearest neighbours as (s, t, cos) rows, sources ascending.

    Per source, a loop over the dense cosine matrix finds its best target
    and that target's best source: the highest cosine, ties to the lowest
    id.  The pair is kept when the source is its target's best.
    """
    src, tgt = sorted(sources), sorted(targets)
    if not src or not tgt:
        return []
    scores = dense_cosines(model, src, tgt).tolist()
    rows = []
    for i, s in enumerate(src):
        j = max(range(len(tgt)), key=lambda jj: (scores[i][jj], -jj))
        if max(range(len(src)), key=lambda ii: (scores[ii][j], -ii)) == i:
            rows.append((s, tgt[j], scores[i][j]))
    return rows


def loop_m_step(state, config) -> list[tuple[int, int, float]]:
    """The M-step as one loop over the round's alignment; returns its labels.

    The observed pairs at 1, then greedy matching over the last split's
    positives whose source and target are both unobserved, then, with a
    model, the mutual nearest neighbours among the still-free entities
    (:func:`loop_mutual_nearest`) with a positive cosine, at
    q = (cos + 1) / 2.  Those labels, in that order, re-estimate p_sub.
    """
    labels = [(s, t, 1.0) for s, t in zip(state.observed.src.tolist(), state.observed.tgt.tolist())]
    used_src = {s for s, _, _ in labels}
    used_tgt = {t for _, t, _ in labels}
    split = state.last_split
    positives = split_rows(split) if split is not None else []
    labels += sorted_greedy((s, t, v) for s, t, v in positives if s not in used_src and t not in used_tgt)
    if state.model is not None:
        used_src = {s for s, _, _ in labels}
        used_tgt = {t for _, t, _ in labels}
        sources = [s for s in range(state.pair.source.n_entities) if s not in used_src]
        targets = [t for t in range(state.pair.target.n_entities) if t not in used_tgt]
        mutual = loop_mutual_nearest(state.model, sources, targets)
        labels += [(s, t, (c + 1.0) / 2.0) for s, t, c in mutual if c > 0.0]
    state.psub = update_subrelation_probs(state.pair, *offer_columns(labels))
    return labels


def offer_columns(
    offers: Iterable[tuple[int, int, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source, target and score arrays of (s, t, score) offers, in order."""
    offers = list(offers)
    src = np.array([s for s, _, _ in offers], dtype=np.int64)
    tgt = np.array([t for _, t, _ in offers], dtype=np.int64)
    return src, tgt, np.array([v for _, _, v in offers], dtype=np.float64)


def column_tuples(columns: Iterable[np.ndarray]) -> list[tuple]:
    """Equal-length columns as a list of row tuples of Python scalars."""
    return list(zip(*(col.tolist() for col in columns)))


def split_rows(split) -> list[tuple[int, int, float]]:
    """A threshold split's positives as (s, t, score) rows."""
    return column_tuples((split.src, split.tgt, split.val))


def table_from_rows(
    rows: dict[int, dict[int, float]],
    pinned: Iterable[tuple[int, int]] = (),
) -> TruthScoreTable:
    """The engine's truth table of ``{source: {target: score}}`` rows,
    ``pinned`` pairs pinned; the constructor sorts the entries by key."""
    entries = [(s, t, v) for s, row in rows.items() for t, v in row.items()]
    pin_keys = np.unique(np.array([s << 32 | t for s, t in pinned], dtype=np.int64))
    return TruthScoreTable(*offer_columns(entries), pin_keys)


def table_rows(table: TruthScoreTable) -> dict[int, dict[int, float]]:
    """A truth table's entries as ``{source: {target: score}}``, in table
    order: sources ascending, each row by ascending target."""
    rows: dict[int, dict[int, float]] = {}
    for s, t, v in column_tuples((table.src, table.tgt, table.val)):
        rows.setdefault(s, {})[t] = v
    return rows


def pinned_pairs(table: TruthScoreTable) -> frozenset[tuple[int, int]]:
    """A truth table's pinned (source, target) pairs."""
    return frozenset(zip((table.pin_keys >> 32).tolist(), (table.pin_keys & 0xFFFFFFFF).tolist()))


def loop_bfs_reachable(kg: KnowledgeGraph, e: int, max_len: int) -> dict[int, tuple]:
    """``bfs_reachable`` over ``kg.neighbors`` lists, one level at a time,
    with each path read from e out to the entity it reaches.

    Every reached entity keeps the first path that found it, and every
    level's entities are expanded, the last one's included.
    ``loop_reverse`` of each path is ``bfs_reachable``'s path.
    """
    if max_len < 1:
        raise ValueError(f"path length bound must be >= 1, got {max_len}")
    kg.neighbors(e)  # validates the id
    found: dict[int, tuple] = {}
    frontier: list[tuple[int, tuple]] = [(e, ())]
    for _ in range(max_len):
        next_frontier = []
        for node, path in frontier:
            for rel, nbr in kg.neighbors(node):
                if nbr == e or nbr in found:
                    continue
                step_path = path + ((rel, nbr),)
                found[nbr] = step_path
                next_frontier.append((nbr, step_path))
        frontier = next_frontier
    return found


def loop_reverse(path: tuple, query: int) -> tuple:
    """A query-to-anchor path walked back from its last entity to ``query``."""
    steps = []
    for k, (rel, _) in enumerate(path):
        came_from = query if k == 0 else path[k - 1][1]
        steps.insert(0, (rel ^ 1, came_from))
    return tuple(steps)


def loop_walks(kg: KnowledgeGraph, e: int, max_len: int) -> dict[int, list[tuple]]:
    """Every walk of length <= max_len from e over ``kg.neighbors`` that
    does not return to e, grouped by end entity; each walk is built from
    e outwards and then flipped by ``loop_reverse``."""
    walks: dict[int, list[tuple]] = {}
    frontier: list[tuple[int, tuple]] = [(e, ())]
    for _ in range(max_len):
        next_frontier = []
        for node, path in frontier:
            for rel, nbr in kg.neighbors(node):
                if nbr == e:
                    continue
                step_path = path + ((rel, nbr),)
                walks.setdefault(nbr, []).append(step_path)
                next_frontier.append((nbr, step_path))
        frontier = next_frontier
    return {end: [loop_reverse(path, e) for path in paths] for end, paths in walks.items()}


def path_confidence(source_path, target_path, eta_source, eta_target, psub) -> float:
    """Rule weight of two equal-length anchor-to-query paths, 0 for unequal lengths.

    Product over the steps, in path order, of
    eta(d) * eta(d') * (p_sub(d in d') + p_sub(d' in d)) / 2.
    """
    if len(source_path) != len(target_path):
        return 0.0
    w = 1.0
    for (d, _), (dp, _) in zip(source_path, target_path):
        both_ways = psub.source_in_target[d, dp] + psub.target_in_source[dp, d]
        w *= eta_source[d] * eta_target[dp] * both_ways / 2.0
    return w


def loop_explain(
    pair: KnowledgeGraphPair,
    query: tuple[int, int],
    anchor_pairs: Sequence[tuple[int, int]],
    eta_source,
    eta_target,
    psub,
    max_len: int,
    exhaustive: bool = False,
) -> list[RuleExplanation]:
    """``explain`` as a loop over every anchor pair, reachable or not.

    Each anchor whose two sides sit in the query's two frontiers
    contributes one explanation per equal-length path pair with positive
    weight; every path is searched from the query out, flipped step by
    step and weighed from scratch, and the result is sorted by
    (-confidence, anchor, source path, target path).
    """
    e_q, e_q_prime = query
    if exhaustive:
        src_paths = loop_walks(pair.source, e_q, max_len)
        tgt_paths = loop_walks(pair.target, e_q_prime, max_len)
    else:
        src_paths, tgt_paths = (
            {end: [loop_reverse(path, e)] for end, path in loop_bfs_reachable(kg, e, max_len).items()}
            for kg, e in ((pair.source, e_q), (pair.target, e_q_prime))
        )
    results = []
    for a, a_prime in anchor_pairs:
        if a not in src_paths or a_prime not in tgt_paths:
            continue
        for sp in src_paths[a]:
            for tp in tgt_paths[a_prime]:
                if len(sp) != len(tp):
                    continue
                w = path_confidence(sp, tp, eta_source, eta_target, psub)
                if w > 0.0:
                    results.append(RuleExplanation((a, a_prime), sp, tp, w))
    results.sort(key=lambda ex: (-ex.confidence, ex.anchor, ex.source_path, ex.target_path))
    return results


def save_dataset(bundle: DatasetBundle, directory: str | Path) -> None:
    """Write the bundle back out in the three-file layout ``load_dataset`` reads."""
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


def read_tsv_rows(path: Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Non-blank rows of a TSV file with their 1-based line numbers, read lazily."""
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
            yield lineno, fields


@dataclass(frozen=True)
class LoopGraph:
    """The label tables and indexes of a graph, built as :func:`loop_load_graph` does."""

    entity_labels: tuple[str, ...]
    relation_labels: tuple[str, ...]
    entity_ids: dict[str, int]
    triples: tuple[tuple[int, int, int], ...]
    triple_columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    directed_adj: DirectedAdjacency
    edge_index: tuple[np.ndarray, np.ndarray]


def loop_index(
    entity_labels: Sequence[str], relation_labels: Sequence[str], triples: Sequence[tuple[int, int, int]]
) -> LoopGraph:
    """Triple columns, the CSR ordered by a 4-key lexsort, and the edge index."""
    n_entities = len(entity_labels)
    columns = np.array(tuple(triples), dtype=np.int64).reshape(-1, 3).T.copy()
    h, r, t = columns
    owner, nbr = np.concatenate([h, t]), np.concatenate([t, h])
    rel = np.concatenate([2 * r, 2 * r + 1])
    order = np.lexsort((rel, nbr, rel >> 1, owner))
    adj = DirectedAdjacency(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n_entities))]),
        rel=rel[order],
        nbr=nbr[order],
    )
    keys = np.repeat(np.arange(n_entities), np.diff(adj.indptr)) * n_entities + adj.nbr
    by_key = np.argsort(keys, kind="stable")
    return LoopGraph(
        entity_labels=tuple(entity_labels),
        relation_labels=tuple(relation_labels),
        entity_ids={lab: i for i, lab in enumerate(entity_labels)},
        triples=tuple(triples),
        triple_columns=(h, r, t),
        directed_adj=adj,
        edge_index=(keys[by_key], adj.rel[by_key]),
    )


def loop_load_graph(triple_records: Iterable[Sequence[str]]) -> LoopGraph:
    """``load_graph`` interning one record at a time, with a ``seen`` set for duplicates."""
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    entity_labels: list[str] = []
    relation_labels: list[str] = []
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

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
            continue
        seen.add(triple)
        triples.append(triple)

    return loop_index(entity_labels, relation_labels, triples)


def loop_load_dataset(
    directory: Path,
) -> tuple[LoopGraph, LoopGraph, tuple[tuple[int, int], ...]]:
    """``load_dataset`` reading line by line: the source and target graphs and the links."""
    root = Path(directory)
    for name in (*TRIPLE_FILES, LINKS_FILE):
        if not (root / name).is_file():
            raise DatasetError(f"missing dataset file: {root / name}")

    graphs = []
    for name in TRIPLE_FILES:
        try:
            graphs.append(loop_load_graph(fields for _, fields in read_tsv_rows(root / name, 3)))
        except IngestError as exc:
            raise DatasetError(f"{name}: {exc}") from exc
    source, target = graphs

    links: list[tuple[int, int]] = []
    links_path = root / LINKS_FILE
    for lineno, (src, tgt) in read_tsv_rows(links_path, 2):
        s = source.entity_ids.get(src)
        t = target.entity_ids.get(tgt)
        if s is None:
            raise DatasetError(
                f"{links_path.name}:{lineno}: link references unknown source entity {src!r}"
            )
        if t is None:
            raise DatasetError(
                f"{links_path.name}:{lineno}: link references unknown target entity {tgt!r}"
            )
        links.append((s, t))
    return source, target, tuple(links)
