"""Rule-path interpretations for predicted or queried entity pairs.

An explanation for a query pair (e, e') is an anchor pair (a, a')
together with one relation path a -> e and one a' -> e' of equal
length.  Its confidence is the product over the aligned steps of

    eta(d_k) * eta(d_k') * (p_sub(d_k in d_k') + p_sub(d_k' in d_k)) / 2

with the step relations read along the anchor-to-query direction.
The path searches walk out from the query and record each path in that
direction as they go.  Anchors come either from the observed seeds only
(hard mode) or from seeds plus inferred pairs (soft mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

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


class RuleExplanation(NamedTuple):
    """One supporting rule: an anchor pair, its two paths and their weight.

    A NamedTuple, so records are immutable, hashable and built by
    position.
    """

    anchor: tuple[int, int]
    source_path: Path
    target_path: Path
    confidence: float


def bfs_reachable(kg: KnowledgeGraph, e: int, max_len: int) -> dict[int, Path]:
    """Shortest path per entity reachable from e, read from it back to e.

    Breadth-first over the graph's CSR adjacency in its deterministic
    order, so among equal-length paths the first-discovered one (through
    the lower-ordered neighbor) is kept.  The start entity itself is not
    reported.  Each path is written in the direction a rule reads it:
    one step back over the edge the entity was reached by, to its parent,
    then the path reported for that parent, so every non-empty suffix of
    a reported path is itself reported.
    Raises ``KeyError`` for an unknown id.
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
            for d, end in zip(rel[lo:hi].tolist(), nbr[lo:hi].tolist()):
                if end == e or end in found:
                    continue
                found[end] = end_path = ((d ^ 1, node),) + path
                if depth < max_len:
                    next_frontier.append((end, end_path))
        frontier = next_frontier
    return found


def _walks(kg: KnowledgeGraph, e: int, max_len: int) -> dict[int, list[Path]]:
    """Every walk of length <= max_len from e, grouped by end entity and
    read from the end back to e."""
    out: dict[int, list[Path]] = {}
    frontier: list[tuple[int, Path]] = [(e, ())]
    for _ in range(max_len):
        next_frontier: list[tuple[int, Path]] = []
        for node, path in frontier:
            for d, nbr in kg.neighbors(node):
                if nbr == e:
                    continue
                end_path = ((d ^ 1, node),) + path
                out.setdefault(nbr, []).append(end_path)
                next_frontier.append((nbr, end_path))
        frontier = next_frontier
    return out


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
    grows exponentially and is meant for small studies).  Both searches
    write each path from the reached entity back to the query, the
    order a rule reads it in, so the paths are weighed and reported as
    found.  Anchor pairs whose two paths have different lengths are
    dropped, and so are zero-confidence explanations.  Only the anchors
    reachable from the query source are visited.

    Each step pair (d, d') weighs ``eta(d) * eta(d') * (p_sub(d in d') +
    p_sub(d' in d)) / 2``, computed from Python floats (the same bits as
    from numpy scalars) the first time it is seen and memoized for the
    rest of the call under the int key ``d * 2R' + d'``; a rule
    multiplies its steps in anchor-to-query order.  Rules are collected
    and sorted as plain (-confidence, anchor, source path, target path)
    tuples, a total order, so the result does not depend on the
    visiting order; the records are built from the sorted tuples.
    Nothing is kept between calls.
    """
    if max_len < 1:
        raise ValueError(f"path length bound must be >= 1, got {max_len}")
    e_q, e_q_prime = query
    targets = anchors._targets
    if exhaustive:
        src_walks = _walks(pair.source, e_q, max_len)
        tgt_walks = _walks(pair.target, e_q_prime, max_len)
        joined = [
            (a, a_prime, sp, tp)
            for a, source_walks in src_walks.items()
            if (a_prime := targets.get(a)) is not None
            for sp in source_walks
            for tp in tgt_walks.get(a_prime, ())
        ]
    else:
        src_paths = bfs_reachable(pair.source, e_q, max_len)
        tgt_paths = bfs_reachable(pair.target, e_q_prime, max_len)
        joined = [
            (a, a_prime, sp, tgt_paths[a_prime])
            for a, sp in src_paths.items()
            if (a_prime := targets.get(a)) is not None and a_prime in tgt_paths
        ]
    eta_s, eta_t = eta_source.item, eta_target.item
    sit, tis = psub.source_in_target.item, psub.target_in_source.item
    n_target = psub.source_in_target.shape[1]
    steps: dict[int, float] = {}
    rows: list[tuple[float, int, int, Path, Path]] = []
    for a, a_prime, sp, tp in joined:
        if len(sp) != len(tp):
            continue
        w = 1.0
        for (d, _), (dp, _) in zip(sp, tp):
            key = d * n_target + dp
            step = steps.get(key)
            if step is None:
                step = steps[key] = eta_s(d) * eta_t(dp) * (sit(d, dp) + tis(dp, d)) / 2.0
            w *= step
        if w > 0.0:
            rows.append((-w, a, a_prime, sp, tp))
    rows.sort()
    return [RuleExplanation((a, a_prime), sp, tp, -neg_w) for neg_w, a, a_prime, sp, tp in rows]


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
