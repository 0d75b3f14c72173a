"""Independent brute-force references for the probabilistic math.

Everything here recomputes the definitions literally: dense loops over
all entity pairs, per-relation counting without shared tables, and
product-graph walks for rule enumeration.  Nothing imports the engine's
table types beyond plain graphs (the reference trainer takes the
embedder's label and report types, and the explain loop the explainer's
path search and rule weight, and the ingest loops the data module's
file names and error type), so agreement with the engine is evidence
rather than tautology.

Direction convention used throughout: each triple (h, r, t) is doubled
into directed triples (h, 2r, t) and (t, 2r+1, h).  The functionality
of a directed relation is its count of distinct second endpoints over
its count of directed pairs, which for the forward direction is the
distinct-tail ratio.  Subrelation tables are expected to be mirror
symmetric (p(d in d') equals p(flip d in flip d')), which the engine's
estimator guarantees and hand-built test tables must respect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from kgalign.data import LINKS_FILE, TRIPLE_FILES, DatasetError
from kgalign.embedder import PseudoLabelSet, TrainingError, TrainReport, _unit_rows
from kgalign.explain import RuleExplanation, _reverse, _walks, bfs_reachable, path_confidence
from kgalign.graph import (
    DirectedAdjacency,
    IngestError,
    KnowledgeGraph,
    KnowledgeGraphPair,
    pack_direction,
)


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


def loop_functionalities(kg: KnowledgeGraph) -> np.ndarray:
    """Functionality values by packed direction from per-relation Python sets.

    Index 2r holds (distinct heads) / (triples of r), index 2r + 1
    (distinct tails) / (triples of r); relations without triples hold 0.
    """
    heads: list[set[int]] = [set() for _ in range(kg.n_relations)]
    tails: list[set[int]] = [set() for _ in range(kg.n_relations)]
    pairs = np.zeros(kg.n_relations, dtype=np.int64)
    for h, r, t in kg.triples:
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
    at 0.  Rows and the entries inside them keep their order."""
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
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int, float]]]:
    """Non-pinned (s, t, score) entries ascending by (s, t), split into
    those scoring above ``delta`` and the rest."""
    positives: list[tuple[int, int, float]] = []
    negatives: list[tuple[int, int, float]] = []
    for s in sorted(rows):
        for t in sorted(rows[s]):
            if (s, t) not in pinned:
                v = rows[s][t]
                (positives if v > delta else negatives).append((s, t, v))
    return positives, negatives


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
        for h, r, t in kg.triples:
            edges.setdefault((h, t), []).append(2 * r)
            edges.setdefault((t, h), []).append(2 * r + 1)
        return {k: tuple(sorted(v)) for k, v in edges.items()}

    def one_way(kg_from: KnowledgeGraph, edges_to, labels_by_from) -> dict[tuple[int, int], float]:
        numerators: dict[tuple[int, int], float] = {}
        denominators: dict[int, float] = {}
        for h, r, t in kg_from.triples:
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


def _loop_directed_triples(kg: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head/relation/tail index arrays with both directions materialized."""
    if not kg.triples:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    h, r, t = (np.array(col, dtype=np.int64) for col in zip(*kg.triples))
    heads = np.concatenate([h, t])
    rels = np.concatenate([2 * r, 2 * r + 1])
    tails = np.concatenate([t, h])
    return heads, rels, tails


def loop_train(
    model,
    pair: KnowledgeGraphPair,
    positives,
    negatives_pool=np.empty((0, 2), dtype=np.int64),
    origin_weights=None,
) -> TrainReport:
    """The trainer written with one ``np.add.at`` scatter per term family,
    hard negatives drawn by ``rng.choice`` in a per-positive loop.

    Same loss, same draws and the same summation order as
    ``embedder.train``, so the two must agree bit for bit: every weight
    array, every epoch loss and the generator state afterwards.
    """
    hp = model.hyperparams
    sets = [positives] if isinstance(positives, PseudoLabelSet) else list(positives)
    weights = dict(origin_weights or {})

    pos_src: list[int] = []
    pos_tgt: list[int] = []
    pos_w: list[float] = []
    for ls in sets:
        w_set = weights.get(ls.origin, 1.0)
        for s, t, conf in zip(ls.src.tolist(), ls.tgt.tolist(), ls.conf.tolist()):
            pos_src.append(s)
            pos_tgt.append(t)
            pos_w.append(w_set * conf)
    if not pos_src:
        raise TrainingError("no positive pairs to train on")

    src_idx = np.array(pos_src, dtype=np.int64)
    tgt_idx = np.array(pos_tgt, dtype=np.int64)
    w = np.array(pos_w, dtype=np.float64)

    pools: dict[int, np.ndarray] = {}
    staged: dict[int, set[int]] = {}
    for s, t in np.asarray(negatives_pool, dtype=np.int64).tolist():
        staged.setdefault(s, set()).add(t)
    for s, ts in staged.items():
        pools[s] = np.array(sorted(ts), dtype=np.int64)

    h1, r1, t1 = _loop_directed_triples(pair.source)
    h2, r2, t2 = _loop_directed_triples(pair.target)

    k = hp.negatives
    gamma = hp.margin
    lr = hp.learning_rate
    rng = model.rng
    n_t = model.ent_target.shape[0]
    n_hard = int(round(k * hp.hard_negative_fraction))
    n_pos = len(src_idx)
    n_terms = k * (n_pos + len(h1) + len(h2))

    losses: list[float] = []
    for _ in range(hp.epochs):
        loss_sum = 0.0
        g_es = np.zeros_like(model.ent_source)
        g_et = np.zeros_like(model.ent_target)

        if k > 0:
            neg = rng.integers(0, n_t, size=(n_pos, k))
            for i in range(n_pos):
                pool = pools.get(int(src_idx[i]))
                if pool is not None and n_hard > 0:
                    neg[i, :n_hard] = rng.choice(pool, size=n_hard)
            # A sampled negative equal to the true counterpart carries no
            # signal; nudge it to the next id.
            clash = neg == tgt_idx[:, None]
            neg[clash] = (neg[clash] + 1) % n_t

            su = model.ent_source[src_idx]
            tv = model.ent_target[tgt_idx]
            nt = model.ent_target[neg]
            pos_score = np.einsum("id,id->i", su, tv)
            neg_score = np.einsum("id,ikd->ik", su, nt)
            hinge = gamma - pos_score[:, None] + neg_score
            active = hinge > 0.0
            loss_sum += float((w[:, None] * np.maximum(hinge, 0.0)).sum())

            act_w = np.where(active, w[:, None], 0.0)
            act_count = act_w.sum(axis=1)
            g_su = -tv * act_count[:, None] + np.einsum("ik,ikd->id", act_w, nt)
            np.add.at(g_es, src_idx, g_su)
            np.add.at(g_et, tgt_idx, -su * act_count[:, None])
            np.add.at(g_et, neg.reshape(-1), (act_w[:, :, None] * su[:, None, :]).reshape(-1, su.shape[1]))

        g_rs = np.zeros_like(model.rel_source)
        g_rt = np.zeros_like(model.rel_target)
        if k > 0 and hp.triple_weight > 0.0:
            for ents, rels, grads_e, grads_r, (hh, rr, tt) in (
                (model.ent_source, model.rel_source, g_es, g_rs, (h1, r1, t1)),
                (model.ent_target, model.rel_target, g_et, g_rt, (h2, r2, t2)),
            ):
                if len(hh) == 0:
                    continue
                corrupt = rng.integers(0, ents.shape[0], size=(len(hh), k))
                resid = ents[hh] + rels[rr] - ents[tt]
                resid_neg = (ents[hh] + rels[rr])[:, None, :] - ents[corrupt]
                d_pos = np.einsum("id,id->i", resid, resid)
                d_neg = np.einsum("ikd,ikd->ik", resid_neg, resid_neg)
                hinge = gamma + d_pos[:, None] - d_neg
                active = (hinge > 0.0).astype(np.float64)
                loss_sum += hp.triple_weight * float(np.maximum(hinge, 0.0).sum())

                cw = hp.triple_weight
                n_active = active.sum(axis=1)
                pull = cw * 2.0 * resid * n_active[:, None]
                push = cw * 2.0 * (active[:, :, None] * resid_neg)
                push_total = push.sum(axis=1)
                np.add.at(grads_e, hh, pull - push_total)
                np.add.at(grads_r, rr, pull - push_total)
                np.add.at(grads_e, tt, -pull)
                np.add.at(grads_e, corrupt.reshape(-1), push.reshape(-1, ents.shape[1]))

        if k > 0:
            model.ent_source = _unit_rows(model.ent_source - lr * g_es)
            model.ent_target = _unit_rows(model.ent_target - lr * g_et)
            model.rel_source = _unit_rows(model.rel_source - lr * g_rs)
            model.rel_target = _unit_rows(model.rel_target - lr * g_rt)

        losses.append(loss_sum / n_terms if n_terms else 0.0)
    return TrainReport(epoch_losses=losses)


def sorted_greedy(
    scored_pairs: Iterable[tuple[int, int, float]], budget: int | None = None
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one over the offers in (-score, source, target) order
    from one Python key sort; returns the accepted (s, t, score) list."""
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    accepted: list[tuple[int, int, float]] = []
    for s, t, v in sorted(scored_pairs, key=lambda p: (-p[2], p[0], p[1])):
        if budget is not None and len(accepted) >= budget:
            break
        if s in used_src or t in used_tgt:
            continue
        used_src.add(s)
        used_tgt.add(t)
        accepted.append((s, t, v))
    return accepted


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
    weight; the result is sorted by (-confidence, anchor, source path,
    target path).
    """
    e_q, e_q_prime = query
    if exhaustive:
        src_paths = _walks(pair.source, e_q, max_len)
        tgt_paths = _walks(pair.target, e_q_prime, max_len)
    else:
        src_paths = {k: [v] for k, v in bfs_reachable(pair.source, e_q, max_len).items()}
        tgt_paths = {k: [v] for k, v in bfs_reachable(pair.target, e_q_prime, max_len).items()}
    results = []
    for a, a_prime in anchor_pairs:
        if a not in src_paths or a_prime not in tgt_paths:
            continue
        for sp in src_paths[a]:
            for tp in tgt_paths[a_prime]:
                if len(sp) != len(tp):
                    continue
                rev_s, rev_t = _reverse(sp, e_q), _reverse(tp, e_q_prime)
                w = path_confidence(rev_s, rev_t, eta_source, eta_target, psub)
                if w > 0.0:
                    results.append(RuleExplanation((a, a_prime), rev_s, rev_t, w))
    results.sort(key=lambda ex: (-ex.confidence, ex.anchor, ex.source_path, ex.target_path))
    return results


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


def loop_psub_from_dump(path: Path, left: KnowledgeGraph, right: KnowledgeGraph) -> np.ndarray:
    """A p_sub dump read line by line into a ``(2R_left, 2R_right)`` array."""

    def parse_directed(label: str, kg, lineno: int) -> int:
        inverse = label.endswith("^-1")
        base_label = label[:-3] if inverse else label
        base = kg.relation_ids.get(base_label)
        if base is None:
            raise DatasetError(f"{path.name}:{lineno}: unknown relation label {base_label!r}")
        return pack_direction(base, inverse)

    weights = np.zeros((2 * left.n_relations, 2 * right.n_relations))
    for lineno, (a, b, v) in read_tsv_rows(path, 3):
        try:
            p = float(v)
        except ValueError:
            p = math.nan
        if not 0.0 <= p <= 1.0:
            msg = f"{path.name}:{lineno}: p_sub must be a number in [0, 1], got {v!r}"
            raise DatasetError(msg)
        weights[parse_directed(a, left, lineno), parse_directed(b, right, lineno)] = p
    return weights
