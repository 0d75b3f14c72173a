"""Rule-path interpretations for predicted or queried entity pairs.

An explanation for a query pair (e, e') is an anchor pair (a, a')
together with one relation path a -> e and one a' -> e' of equal
length.  Its confidence is the product over the aligned steps of

    eta(d_k) * eta(d_k') * (p_sub(d_k in d_k') + p_sub(d_k' in d_k)) / 2

with the step relations read along the anchor-to-query direction.
Anchors come either from the observed seeds only (hard mode) or from
seeds plus inferred pairs (soft mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .graph import KnowledgeGraph, KnowledgeGraphPair
from .symbolic import SubrelationTable

# A relation path as (packed directed relation, entity reached) steps.
Path = tuple[tuple[int, int], ...]


class AnchorMode(str, Enum):
    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True)
class AnchorSet:
    """One-to-one anchor pairs with their provenance mode."""

    pairs: tuple[tuple[int, int], ...]
    mode: AnchorMode

    def __post_init__(self):
        targets = dict(self.pairs)
        if len(targets) != len(self.pairs) or len(set(targets.values())) != len(self.pairs):
            raise ValueError("anchor pairs must be one-to-one")
        object.__setattr__(self, "_targets", targets)

    @property
    def by_source(self) -> dict[int, int]:
        """A fresh source -> target anchor dict."""
        return dict(self._targets)


@dataclass(frozen=True)
class RuleExplanation:
    anchor: tuple[int, int]
    source_path: Path
    target_path: Path
    confidence: float


def bfs_reachable(kg: KnowledgeGraph, e: int, max_len: int) -> dict[int, Path]:
    """Shortest path (as (relation, entity) steps from e) per reachable entity.

    Breadth-first over the graph's CSR adjacency in its deterministic
    order, so among equal-length paths the first-discovered one (through
    the lower-ordered neighbor) is kept.  The start entity itself is not
    reported.  The path to an entity is the path reported for its parent
    (the entity it was reached from) plus one step, so every prefix of a
    reported path is itself reported.  Raises ``KeyError`` for an
    unknown id.
    """
    if max_len < 1:
        raise ValueError(f"path length bound must be >= 1, got {max_len}")
    if not 0 <= e < kg.n_entities:
        raise KeyError(f"unknown entity id {e}")
    indptr, rel, nbr = kg.directed_adj
    found: dict[int, Path] = {}
    frontier: list[tuple[int, Path]] = [(e, ())]
    for depth in range(1, max_len + 1):
        next_frontier: list[tuple[int, Path]] = []
        for node, path in frontier:
            lo, hi = indptr[node], indptr[node + 1]
            for step in zip(rel[lo:hi].tolist(), nbr[lo:hi].tolist()):
                end = step[1]
                if end == e or end in found:
                    continue
                found[end] = step_path = path + (step,)
                if depth < max_len:
                    next_frontier.append((end, step_path))
        frontier = next_frontier
    return found


def _walks(kg: KnowledgeGraph, e: int, max_len: int) -> dict[int, list[Path]]:
    """Every walk of length <= max_len from e, grouped by end entity."""
    out: dict[int, list[Path]] = {}
    frontier: list[tuple[int, Path]] = [(e, ())]
    for _ in range(max_len):
        next_frontier: list[tuple[int, Path]] = []
        for node, path in frontier:
            for rel, nbr in kg.neighbors(node):
                if nbr == e:
                    continue
                step_path = path + ((rel, nbr),)
                out.setdefault(nbr, []).append(step_path)
                next_frontier.append((nbr, step_path))
        frontier = next_frontier
    return out


def _reverse(path: Path, query: int) -> Path:
    """Flip a query-to-anchor path into anchor-to-query orientation."""
    nodes = [query] + [entity for _, entity in path]
    return tuple((path[k][0] ^ 1, nodes[k]) for k in range(len(path) - 1, -1, -1))


def _reversed_paths(found: dict[int, Path], query: int) -> Callable[[int], Path]:
    """Anchor-to-query flips of ``bfs_reachable``'s paths from ``query``.

    The flip of the path to x is one step back to x's parent followed by
    the parent's flip, and the parent is itself reached (or is the
    query), so one dict keyed by end entity shares those suffixes.
    """
    flipped: dict[int, Path] = {query: ()}

    def flip(x: int) -> Path:
        path = flipped.get(x)
        if path is None:
            steps = found[x]
            parent = steps[-2][1] if len(steps) > 1 else query
            suffix = flipped.get(parent)
            if suffix is None:
                suffix = flip(parent)
            path = flipped[x] = ((steps[-1][0] ^ 1, parent),) + suffix
        return path

    return flip


def _rule_weights(
    eta_source: np.ndarray, eta_target: np.ndarray, psub: SubrelationTable
) -> Callable[[Path, Path], float]:
    """One query's rule weight of two equal-length anchor-to-query paths.

    Each step pair (d, d') weighs ``eta(d) * eta(d') * (p_sub(d in d') +
    p_sub(d' in d)) / 2``, memoized as a float the first time it is
    seen; the path weight multiplies the steps in anchor-to-query order.
    """
    sit, tis = psub.source_in_target, psub.target_in_source
    steps: dict[tuple[int, int], float] = {}

    def weight(source_path: Path, target_path: Path) -> float:
        w = 1.0
        for (d, _), (dp, _) in zip(source_path, target_path):
            step = steps.get((d, dp))
            if step is None:
                both_ways = sit[d, dp] + tis[dp, d]
                step = steps[d, dp] = float(eta_source[d] * eta_target[dp] * both_ways / 2.0)
            w *= step
        return w

    return weight


def explain(
    pair: KnowledgeGraphPair,
    query: tuple[int, int],
    anchors: AnchorSet,
    eta_source: np.ndarray,
    eta_target: np.ndarray,
    psub: SubrelationTable,
    max_len: int,
    exhaustive: bool = False,
) -> list[RuleExplanation]:
    """Ranked rule paths supporting the query pair.

    Reachable anchors are those whose source side sits in the query
    source's frontier and whose target side sits in the query target's
    frontier.  By default one shortest path per side is parsed for each
    anchor; ``exhaustive`` enumerates every walk pair instead (this
    grows exponentially and is meant for small studies).  Anchor pairs
    whose two paths have different lengths are dropped, and so are
    zero-confidence explanations.  Only the anchors reachable from the
    query source are visited.

    Within one call the step weights of each relation pair are computed
    once, and by default the flipped path of each reached entity is
    built once and shared as the suffix of every longer flipped path
    through it.  Nothing is kept between calls.  The result is sorted by
    (-confidence, anchor), plus both paths in exhaustive mode; by
    default each anchor has at most one explanation and anchors are
    one-to-one, so that shorter key is already total and the result
    does not depend on the visiting order.
    """
    if max_len < 1:
        raise ValueError(f"path length bound must be >= 1, got {max_len}")
    e_q, e_q_prime = query
    targets = anchors._targets
    weight = _rule_weights(eta_source, eta_target, psub)
    results: list[RuleExplanation] = []
    if exhaustive:
        src_walks = _walks(pair.source, e_q, max_len)
        tgt_walks = _walks(pair.target, e_q_prime, max_len)
        for a in src_walks.keys() & targets.keys():
            a_prime = targets[a]
            for sp in src_walks[a]:
                for tp in tgt_walks.get(a_prime, ()):
                    if len(sp) != len(tp):
                        continue
                    rev_s, rev_t = _reverse(sp, e_q), _reverse(tp, e_q_prime)
                    w = weight(rev_s, rev_t)
                    if w > 0.0:
                        results.append(RuleExplanation((a, a_prime), rev_s, rev_t, w))
        results.sort(key=lambda ex: (-ex.confidence, ex.anchor, ex.source_path, ex.target_path))
        return results

    src_found = bfs_reachable(pair.source, e_q, max_len)
    tgt_found = bfs_reachable(pair.target, e_q_prime, max_len)
    flip_s = _reversed_paths(src_found, e_q)
    flip_t = _reversed_paths(tgt_found, e_q_prime)
    for a, sp in src_found.items():
        a_prime = targets.get(a)
        if a_prime is None:
            continue
        tp = tgt_found.get(a_prime)
        if tp is None or len(tp) != len(sp):
            continue
        rev_s, rev_t = flip_s(a), flip_t(a_prime)
        w = weight(rev_s, rev_t)
        if w > 0.0:
            results.append(RuleExplanation((a, a_prime), rev_s, rev_t, w))
    results.sort(key=lambda ex: (-ex.confidence, ex.anchor))
    return results


def _chain(path: Path, kg: KnowledgeGraph) -> str:
    if not path:
        return "(empty)"
    return " ∧ ".join(kg.directed_label(d) for d, _ in path)


def render_report(
    pair: KnowledgeGraphPair,
    query: tuple[int, int],
    explanations: Iterable[RuleExplanation],
    mode: AnchorMode,
    limit: int | None = None,
) -> str:
    """Human-readable report: anchor, both relation chains, confidence."""
    s_label = pair.source.entity_labels[query[0]]
    t_label = pair.target.entity_labels[query[1]]
    lines = [f"query\t{s_label}\t{t_label}\tmode={mode.value}"]
    for i, ex in enumerate(explanations):
        if limit is not None and i >= limit:
            break
        a, a_prime = ex.anchor
        lines.append(
            "\t".join(
                [
                    f"{ex.confidence:.4f}",
                    _chain(ex.source_path, pair.source),
                    _chain(ex.target_path, pair.target),
                    f"anchor={pair.source.entity_labels[a]}|{pair.target.entity_labels[a_prime]}",
                ]
            )
        )
    if len(lines) == 1:
        lines.append("(no supporting rules)")
    return "\n".join(lines) + "\n"


def soft_anchors(
    seeds: Iterable[tuple[int, int]],
    inferred: Iterable[tuple[int, int]],
) -> AnchorSet:
    """Seeds extended with inferred pairs; seeds win conflicts."""
    chosen: dict[int, int] = {}
    used_targets: set[int] = set()
    for s, t in seeds:
        chosen[s] = t
        used_targets.add(t)
    for s, t in inferred:
        if s not in chosen and t not in used_targets:
            chosen[s] = t
            used_targets.add(t)
    return AnchorSet(pairs=tuple(sorted(chosen.items())), mode=AnchorMode.SOFT)


def hard_anchors(seeds: Iterable[tuple[int, int]]) -> AnchorSet:
    return AnchorSet(pairs=tuple(sorted(seeds)), mode=AnchorMode.HARD)
