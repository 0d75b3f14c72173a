"""Independent brute-force references for the probabilistic math.

Everything here recomputes the definitions literally: dense loops over
all entity pairs, per-relation counting without shared tables, and
product-graph walks for rule enumeration.  Nothing imports the engine's
table types beyond plain graphs, so agreement with the engine is
evidence rather than tautology.

Direction convention used throughout: each triple (h, r, t) is doubled
into directed triples (h, 2r, t) and (t, 2r+1, h).  The functionality
of a directed relation is its count of distinct second endpoints over
its count of directed pairs, which for the forward direction is the
distinct-tail ratio.  Subrelation tables are expected to be mirror
symmetric (p(d in d') equals p(flip d in flip d')), which the engine's
estimator guarantees and hand-built test tables must respect.
"""

from __future__ import annotations

from kgalign.graph import KnowledgeGraph, KnowledgeGraphPair


def directed_triples(kg: KnowledgeGraph) -> list[tuple[int, int, int]]:
    out = []
    for h, r, t in kg.triples:
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
    ``FunctionalityTable.values[d ^ 1]``.
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
    eta_source_rev,
    eta_target_rev,
    sub: dict[tuple[int, int], float],
    sup: dict[tuple[int, int], float],
    prev_rows: dict[int, dict[int, float]],
) -> dict[int, dict[int, float]]:
    """One sweep as a per-term dict loop, in the engine's term order.

    Walks, for every source entity e in id order, its adjacency in graph
    order, then each scored counterpart row of the neighbor in dict
    order, then the counterpart's adjacency, multiplying each candidate's
    miss product term by term.  Rows list counterparts by first
    supporting term.  ``eta_*_rev`` are indexed by traversed direction
    (``FunctionalityTable.reverse_values``).  The array sweep must match
    this bit for bit, including row and key order.
    """

    def adjacency(kg: KnowledgeGraph, e: int) -> list[tuple[int, int]]:
        return [(rel.packed, nbr) for rel, nbr in kg.neighbors(e)]

    out: dict[int, dict[int, float]] = {}
    for e in range(pair.source.n_entities):
        survivors: dict[int, float] = {}
        for d, e_t in adjacency(pair.source, e):
            row = prev_rows.get(e_t)
            if not row:
                continue
            eta_d = eta_source_rev[d]
            for e_t2, v in row.items():
                for d2_raw, e2 in adjacency(pair.target, e_t2):
                    d2 = d2_raw ^ 1  # directed triple (e2, d2, e_t2)
                    s_fwd = eta_d * sub.get((d, d2), 0.0) * v
                    s_bwd = eta_target_rev[d2] * sup.get((d2, d), 0.0) * v
                    if s_fwd == 0.0 and s_bwd == 0.0:
                        continue
                    acc = survivors.get(e2, 1.0)
                    survivors[e2] = acc * (1.0 - s_fwd) * (1.0 - s_bwd)
        row_out = {t: 1.0 - f for t, f in survivors.items() if 1.0 - f > 0.0}
        if row_out:
            out[e] = row_out
    return out


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
