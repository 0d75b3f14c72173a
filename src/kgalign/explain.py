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
from typing import Iterable, Mapping

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

    Breadth-first with neighbors expanded in the graph's deterministic
    adjacency order, so among equal-length paths the first-discovered
    one (through the lower-ordered neighbor) is kept.  The start entity
    itself is not reported.
    """
    if max_len < 1:
        raise ValueError(f"path length bound must be >= 1, got {max_len}")
    kg.neighbors(e)  # validates the id
    found: dict[int, Path] = {}
    frontier: list[tuple[int, Path]] = [(e, ())]
    for _ in range(max_len):
        next_frontier: list[tuple[int, Path]] = []
        for node, path in frontier:
            for rel, nbr in kg.neighbors(node):
                if nbr == e or nbr in found:
                    continue
                step_path = path + ((rel, nbr),)
                found[nbr] = step_path
                next_frontier.append((nbr, step_path))
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


def path_confidence(
    source_path: Path,
    target_path: Path,
    eta_source: np.ndarray,
    eta_target: np.ndarray,
    psub: SubrelationTable,
) -> float:
    """Rule weight of two equal-length anchor-to-query paths."""
    if len(source_path) != len(target_path):
        return 0.0
    w = 1.0
    for (d, _), (dp, _) in zip(source_path, target_path):
        both_ways = psub.source_in_target[d, dp] + psub.target_in_source[dp, d]
        w *= eta_source[d] * eta_target[dp] * both_ways / 2.0
    return w


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
    whose two paths have different lengths carry confidence 0 and are
    dropped.  Zero-confidence explanations are not emitted.  Only the
    anchors reachable from the query source are visited; the sort key is
    total, so the result does not depend on the visiting order.
    """
    if max_len < 1:
        raise ValueError(f"path length bound must be >= 1, got {max_len}")
    e_q, e_q_prime = query
    if exhaustive:
        src_paths = _walks(pair.source, e_q, max_len)
        tgt_paths = _walks(pair.target, e_q_prime, max_len)
    else:
        src_paths = {k: [v] for k, v in bfs_reachable(pair.source, e_q, max_len).items()}
        tgt_paths = {k: [v] for k, v in bfs_reachable(pair.target, e_q_prime, max_len).items()}

    results: list[RuleExplanation] = []
    for a in src_paths.keys() & anchors._targets.keys():
        a_prime = anchors._targets[a]
        if a_prime not in tgt_paths:
            continue
        for sp in src_paths[a]:
            for tp in tgt_paths[a_prime]:
                if len(sp) != len(tp):
                    continue
                rev_s = _reverse(sp, e_q)
                rev_t = _reverse(tp, e_q_prime)
                w = path_confidence(rev_s, rev_t, eta_source, eta_target, psub)
                if w > 0.0:
                    results.append(
                        RuleExplanation(
                            anchor=(a, a_prime),
                            source_path=rev_s,
                            target_path=rev_t,
                            confidence=w,
                        )
                    )
    results.sort(key=lambda ex: (-ex.confidence, ex.anchor, ex.source_path, ex.target_path))
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
