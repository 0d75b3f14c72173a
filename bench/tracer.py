"""In-memory span tracer installed around the library's public functions.

Each wrapper replaces the attribute its callers look up (``kgalign.em``
calls ``run_symbolic_inference`` through its own module globals and the
embedder through ``emb.train``), so the spans see exactly the calls the
alignment loop makes.  Spans carry their parent, which gives self time
(span duration minus the time its child spans cover), and optional
counters taken from arguments and results.  Wrappers exist only while a
:class:`Tracer` is entered, so untraced runs call the library unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

Counters = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _len_of(index: int, key: str) -> Callable[[tuple, dict], int]:
    """Length of an argument passed by position or keyword; 0 when left out."""

    def get(args: tuple, kwargs: dict) -> int:
        if key in kwargs:
            return len(kwargs[key])
        return len(args[index]) if len(args) > index else 0

    return get


def _gold_precision(pairs, gold: Mapping[int, int]) -> dict:
    return {
        "pairs": len(pairs),
        "correct": sum(1 for s, t, *_ in pairs if gold.get(s) == t),
    }


def _targets(gold: Mapping[int, int]) -> list[tuple[object, str, str, Counters | None]]:
    """(owner, attribute, span name, counter function) for every wrapped call."""
    # import_module, because the package re-exports the function
    # ``explain`` under the name of its submodule.
    data, em, embedder, explain, metrics, symbolic = (
        importlib.import_module(f"kgalign.{name}")
        for name in ("data", "em", "embedder", "explain", "metrics", "symbolic")
    )
    from kgalign.graph import KnowledgeGraphPair

    retain_in = _len_of(0, "table")
    greedy_in = _len_of(0, "scored_pairs")
    train_pool = _len_of(3, "negatives_pool")

    def train_positives(args: tuple, kwargs: dict) -> int:
        sets = kwargs["positives"] if "positives" in kwargs else args[2]
        return len(sets) if isinstance(sets, embedder.PseudoLabelSet) else sum(len(s) for s in sets)

    return [
        (data, "load_dataset", "data.load_dataset", None),
        (data, "split_seed", "data.split_seed", None),
        (data, "load_graph", "graph.load_graph", lambda a, k, r: {"triples": r.n_triples}),
        (data, "format_predictions", "data.format_predictions", None),
        (KnowledgeGraphPair, "edge_relations", "graph.edge_relations", None),
        (em, "run_em", "em.run_em", None),
        (em, "init_state", "em.init_state", None),
        (em, "e_step", "em.e_step", None),
        (em, "m_step", "em.m_step", None),
        (em, "_top_candidates", "em.top_candidates", None),
        (em, "fuse_predictions", "em.fuse_predictions", None),
        (em, "compute_functionalities", "symbolic.compute_functionalities", None),
        (em, "run_symbolic_inference", "symbolic.run_symbolic_inference", None),
        (
            symbolic,
            "propagate_entity_scores",
            "symbolic.propagate_entity_scores",
            lambda a, k, r: {"entries_out": len(r)},
        ),
        (
            symbolic,
            "retain_best",
            "symbolic.retain_best",
            lambda a, k, r: {"entries_in": retain_in(a, k), "entries_out": len(r)},
        ),
        (
            em,
            "retain_best",
            "symbolic.retain_best",
            lambda a, k, r: {"entries_in": retain_in(a, k), "entries_out": len(r)},
        ),
        (
            em,
            "update_subrelation_probs",
            "symbolic.update_subrelation_probs",
            lambda a, k, r: {"entries": len(r)},
        ),
        (
            em,
            "extract_positive_pairs",
            "symbolic.extract_positive_pairs",
            lambda a, k, r: _gold_precision(r.positives, gold),
        ),
        (embedder, "init_model", "embedder.init_model", None),
        (
            embedder,
            "train",
            "embedder.train",
            lambda a, k, r: {
                "epochs": len(r.epoch_losses),
                "positives": train_positives(a, k),
                "negative_pool": train_pool(a, k),
                "final_loss": r.final,
            },
        ),
        (embedder, "score_pair", "embedder.score_pair", None),
        (embedder, "rank_candidates", "embedder.rank_candidates", None),
        (
            embedder,
            "greedy_one_to_one",
            "embedder.greedy_one_to_one",
            lambda a, k, r: {"offered": greedy_in(a, k), "accepted": len(r)},
        ),
        (explain, "explain", "explain.explain", lambda a, k, r: {"rules": len(r)}),
        (explain, "bfs_reachable", "explain.bfs_reachable", None),
        (metrics, "evaluate_ranking", "metrics.evaluate_ranking", None),
        (metrics, "evaluate_binary", "metrics.evaluate_binary", None),
    ]


class Tracer:
    """Records nested spans while installed; restores every attribute on exit."""

    def __init__(self, gold: Mapping[int, int]):
        self.gold = gold
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, counters: Counters | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counters in _targets(self.gold):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counters))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Dump every span (id, parent, name, start, end, counters) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "counters": s.counters,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


@dataclass
class SpanSummary:
    """Per-name totals: calls, seconds, self seconds, counters summed and of the last call."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counters: dict = field(default_factory=dict)
    last: dict = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, SpanSummary]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    out: dict[str, SpanSummary] = {}
    for s in spans:
        agg = out.setdefault(s.name, SpanSummary())
        agg.calls += 1
        agg.total += s.seconds
        agg.self_time += s.seconds - child_time[s.id]
        for key, value in s.counters.items():
            agg.counters[key] = agg.counters.get(key, 0) + value
        agg.last = s.counters
    return out


def outermost_seconds(spans: list[Span], layer: str) -> float:
    """Time inside spans of one layer, counting only spans with no ancestor in that layer."""
    prefix = layer + "."

    def nested(s: Span) -> bool:
        while s.parent is not None:
            s = spans[s.parent]
            if s.name.startswith(prefix):
                return True
        return False

    return sum(s.seconds for s in spans if s.name.startswith(prefix) and not nested(s))
