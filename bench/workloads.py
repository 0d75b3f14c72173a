"""The benchmark's workloads and the pipeline it measures on each.

A run generates the workload's dataset from the seed, writes it as TSV,
and then makes the library calls that ``kgalign align`` makes:
``data.load_dataset`` -> ``data.split_seed`` -> ``em.run_em`` ->
``em.fuse_predictions`` -> ``metrics.evaluate_*``, followed by a batch
of ``explain.explain`` queries.  Every library call goes through its
module attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from kgalign import data, em, metrics
from kgalign.embedder import Hyperparams, Origin
from kgalign.graph import AlignmentSeed

from generators import Dataset, isomorphic_pair, noisy_pair, write_dataset
from tracer import SpanSummary, Tracer, outermost_seconds, summarize

# The package re-exports the function ``explain`` under the submodule's name.
kexplain = importlib.import_module("kgalign.explain")

TRAIN_RATIO = 0.10
VALID_RATIO = 0.05
EXPLAIN_QUERIES = 1000
# Loads before the first align repetition: at least this many, and for
# at least this much load time.  Every repetition loads its own fresh
# bundle too, and all loads are set-up samples.
SETUP_MIN_SAMPLES = 10
SETUP_MIN_SECONDS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], Dataset]
    symbolic_only: bool
    iterations: int
    epochs: int
    # Floor of hit1 and of recall: about 0.03 below the lowest value
    # measured over seeds when the benchmark was introduced (README.md).
    floor: float

    def config(self, seed: int) -> em.EmConfig:
        return em.EmConfig(
            iterations=self.iterations,
            seed=seed,
            workers=1,
            symbolic_only=self.symbolic_only,
            neural=Hyperparams(epochs=self.epochs),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sym-noisy-10k",
            why="noisy 10k-entity pair with dangling entities, symbolic-only: "
            "the rule engine does nearly all the work and quality is not saturated",
            make=noisy_pair,
            symbolic_only=True,
            iterations=5,
            epochs=0,
            floor=0.97,
        ),
        Workload(
            name="joint-iso500",
            why="500-entity relabeled copy in joint mode, 5 x 30 epochs: "
            "embedder training dominates",
            make=lambda seed: isomorphic_pair(seed, 500, 20, 1500),
            symbolic_only=False,
            iterations=5,
            epochs=30,
            floor=0.95,
        ),
        Workload(
            name="joint-iso5000-rank",
            why="5000-entity relabeled copy, one round of 5 epochs: "
            "per-source ranking in fuse and m-step scoring dominate",
            make=lambda seed: isomorphic_pair(seed, 5000, 40, 15000),
            symbolic_only=False,
            iterations=1,
            epochs=5,
            floor=0.92,
        ),
    )
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class AlignOutput:
    bundle: data.DatasetBundle
    train: AlignmentSeed
    test: AlignmentSeed
    config: em.EmConfig
    state: em.EmState
    fused: em.FusedPredictions
    ranking: metrics.MetricsReport
    binary: metrics.MetricsReport
    seconds: float
    rss_after_em: float
    rss_after_fuse: float
    digest: str = ""


def align_once(bundle: data.DatasetBundle, workload: Workload, seed: int) -> AlignOutput:
    """One ``kgalign align`` computation; ``seconds`` covers run_em, fuse and evaluation."""
    train, valid, test = data.split_seed(bundle.links, TRAIN_RATIO, VALID_RATIO, seed)
    config = workload.config(seed)
    started = time.perf_counter()
    state = em.run_em(bundle.pair, train, config, validation=valid)
    rss_em = peak_rss_mb()
    fused = em.fuse_predictions(state, config, rank_sources=[s for s, _ in test.pairs])
    rss_fuse = peak_rss_mb()
    ranking = metrics.evaluate_ranking(fused.rankings, test.by_source, ks=(1, 10))
    test_sources = set(test.by_source)
    binary = metrics.evaluate_binary(
        [(s, t) for s, t, _, _ in fused.binary if s in test_sources], test.pairs
    )
    seconds = time.perf_counter() - started
    out = AlignOutput(bundle, train, test, config, state, fused, ranking, binary, seconds, rss_em, rss_fuse)
    text = data.format_predictions(fused.binary, bundle.pair.source, bundle.pair.target)
    out.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def check_outputs(out: AlignOutput, workload: Workload) -> list[str]:
    """Every violated output property, as readable messages; empty when correct."""
    problems: list[str] = []
    train_pairs = set(out.train.pairs)
    train_src = {s for s, _ in train_pairs}
    train_tgt = {t for _, t in train_pairs}

    sources = [s for s, _, _, _ in out.fused.binary]
    targets = [t for _, t, _, _ in out.fused.binary]
    if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
        problems.append("binary set is not one-to-one")
    observed = {(s, t) for s, t, _, o in out.fused.binary if o is Origin.OBSERVED}
    if observed != train_pairs:
        problems.append("observed binary pairs differ from the train pairs")
    for s, t, _, o in out.fused.binary:
        if o is not Origin.OBSERVED and (s in train_src or t in train_tgt):
            problems.append(f"inferred binary pair {(s, t)} reuses a train entity")
            break

    depth = out.config.rank_depth
    if set(out.fused.rankings) != set(out.test.by_source):
        problems.append("ranked sources differ from the held-out sources")
    for s, ranked in out.fused.rankings.items():
        if len(ranked) > depth or len(set(ranked)) != len(ranked):
            problems.append(f"ranked list of {s} is longer than {depth} or repeats a target")
            break
        if train_tgt.intersection(ranked):
            problems.append(f"ranked list of {s} contains a train target")
            break

    values = quality(out)
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} outside [0, 1]")
    for name in ("hit1", "recall"):
        if values[name] < workload.floor:
            problems.append(f"{name} {values[name]:.4f} below floor {workload.floor}")
    return problems


def quality(out: AlignOutput) -> dict[str, float]:
    return {
        "hit1": out.ranking.hits_at[1],
        "hit10": out.ranking.hits_at[10],
        "mrr": out.ranking.mrr,
        "recall": out.binary.recall,
        "precision": out.binary.precision,
        "f1": out.binary.f1,
    }


@dataclass
class ExplainBatch:
    queries: int = 0
    failed: int = 0
    explained: int = 0
    rules: int = 0
    # Per query of the first pass, its time; per pass, queries per second.
    latencies: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)


def explain_batch(out: AlignOutput, seed: int, min_seconds: float = 0.0) -> ExplainBatch:
    """Soft-mode explanations of held-out gold pairs, anchored on the binary set.

    A pass explains ``EXPLAIN_QUERIES`` held-out pairs, taken in a seeded
    order and cycled as needed.  Passes repeat the same queries until
    ``min_seconds`` have passed, and there is always at least one.
    """
    anchors = kexplain.soft_anchors(out.train.pairs, [(s, t) for s, t, _, _ in out.fused.binary])
    pool = out.test.pairs
    order = np.random.default_rng(seed).permutation(len(pool))
    queries = [pool[order[i % len(pool)]] for i in range(EXPLAIN_QUERIES)]
    state, max_len = out.state, out.config.rule_length
    batch = ExplainBatch()
    clock = time.perf_counter
    started = clock()
    while not batch.pass_rates or clock() - started < min_seconds:
        pass_started = clock()
        for query in queries:
            batch.queries += 1
            t0 = clock()
            try:
                exps = kexplain.explain(
                    out.bundle.pair, query, anchors, state.eta_source, state.eta_target, state.psub, max_len
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                batch.failed += 1
                continue
            if not batch.pass_rates:
                batch.latencies.append(clock() - t0)
            confidences = [ex.confidence for ex in exps]
            if any(not 0.0 < c <= 1.0 for c in confidences) or confidences != sorted(confidences, reverse=True):
                batch.failed += 1
            batch.rules += len(exps)
            batch.explained += bool(exps)
        batch.pass_rates.append(len(queries) / (clock() - pass_started))
    return batch


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    details: dict


def _timed_load(directory: Path, samples: list[float]) -> data.DatasetBundle:
    gc.collect()
    started = time.perf_counter()
    bundle = data.load_dataset(directory)
    samples.append(time.perf_counter() - started)
    return bundle


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> RunResult:
    """Measure one workload; with ``trace`` also make one traced pass.

    The run measures for ``seconds``: as many whole align repetitions as
    fit in the first half (at least one), then explain passes for the
    rest (at least one).
    """
    data_dir = out_dir / f"data-{workload.name}-{seed}"
    shutil.rmtree(data_dir, ignore_errors=True)
    write_dataset(workload.make(seed), data_dir)
    try:
        return _measure(workload, seed, seconds, trace, data_dir, out_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _measure(
    workload: Workload, seed: int, seconds: float, trace: bool, data_dir: Path, out_dir: Path
) -> RunResult:
    setup: list[float] = []
    while len(setup) < SETUP_MIN_SAMPLES or sum(setup) < SETUP_MIN_SECONDS:
        _timed_load(data_dir, setup)

    attempted = failed = 0
    align: list[float] = []
    digests: set[str] = set()
    problems: list[str] = []
    last: AlignOutput | None = None
    started = time.monotonic()
    while True:
        # Drop the previous repetition first, so the peak RSS does not
        # depend on how many repetitions fit in the time.
        last = None
        # A fresh bundle per repetition: the pair caches edge indexes lazily.
        bundle = _timed_load(data_dir, setup)
        attempted += 1
        out = None
        try:
            out = align_once(bundle, workload, seed)
            found = check_outputs(out, workload)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            found = []
        else:
            align.append(out.seconds)
            digests.add(out.digest)
            last = out
            if found:
                failed += 1
                problems.extend(found)
        del bundle, out
        # Stop before a repetition that would end past half the time.
        elapsed = time.monotonic() - started
        if elapsed * (attempted + 1) / attempted > seconds / 2:
            break
    if len(digests) > 1:
        problems.append(f"repetitions produced {len(digests)} different prediction digests")
        failed += 1

    result_metrics: dict[str, tuple[float, str]] = {}
    details: dict = {
        "workload": workload.name,
        "setup_samples_s": setup,
        "align_samples_s": align,
        "prediction_sha256": sorted(digests),
        "problems": problems,
    }
    if last is not None:
        batch = explain_batch(last, seed, seconds - (time.monotonic() - started))
        attempted += batch.queries
        failed += batch.failed
        result_metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "align_s": (statistics.median(align), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "explain_qps": (statistics.median(batch.pass_rates), "1/s"),
        }
        details["quality"] = quality(last)
        for name in ("hit1", "mrr", "recall", "precision"):
            result_metrics[name] = (details["quality"][name], "ratio")
        details["explain_queries"] = batch.queries
        details["explain_pass_rates"] = batch.pass_rates
        if trace:
            details["end_to_end"] = {k: v for k, (v, _) in result_metrics.items()}
            del last, batch  # keep the traced pass's memory peaks its own
            attempted += 1
            try:
                result_metrics, explain_attempted, explain_failed, found = _traced_pass(
                    workload, seed, data_dir, out_dir, statistics.median(align), digests
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                result_metrics = {}
            else:
                attempted += explain_attempted
                failed += bool(found) + explain_failed
                problems.extend(found)
    details["failed_share"] = failed / attempted
    return RunResult(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=result_metrics,
        details=details,
    )


def _traced_pass(
    workload: Workload,
    seed: int,
    data_dir: Path,
    out_dir: Path,
    untraced_align_s: float,
    untraced_digests: set[str],
) -> tuple[dict[str, tuple[float, str]], int, int, list[str]]:
    """Load, align, check and explain once under the tracer.

    Returns the per-layer metrics, the explain queries attempted and
    failed, and the failed output checks, which include a prediction
    digest that differs from the untraced repetitions'.
    """
    gold = dict(data.load_dataset(data_dir).links)
    gc.collect()
    with Tracer(gold) as tracer:
        bundle = data.load_dataset(data_dir)
        out = align_once(bundle, workload, seed)
        problems = check_outputs(out, workload)
        batch = explain_batch(out, seed)
    if out.digest not in untraced_digests:
        problems.append("the traced pass produced a different prediction digest")
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.json")
    metrics = layer_metrics(tracer, out, batch, gold, untraced_align_s)
    return metrics, batch.queries, batch.failed, problems


def layer_metrics(
    tracer: Tracer,
    out: AlignOutput,
    batch: ExplainBatch,
    gold: dict[int, int],
    untraced_align_s: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, keyed by name, with units."""
    spans = summarize(tracer.spans)

    def span(name: str) -> SpanSummary:
        return spans.get(name, SpanSummary())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    propagate = span("symbolic.propagate_entity_scores")
    retain = span("symbolic.retain_best")
    psub = span("symbolic.update_subrelation_probs")
    extract = span("symbolic.extract_positive_pairs")
    train = span("embedder.train")
    rank = span("embedder.rank_candidates")
    score = span("embedder.score_pair")
    greedy = span("embedder.greedy_one_to_one")
    fuse = span("em.fuse_predictions")
    explain = span("explain.explain")
    align_s = out.seconds

    by_origin = {o: [(s, t) for s, t, _, oo in out.fused.binary if oo is o] for o in Origin}

    def origin_precision(o: Origin) -> float:
        pairs = by_origin[o]
        return ratio(sum(1 for s, t in pairs if gold.get(s) == t), len(pairs))

    last = out.state.history[-1]
    latencies_ms = sorted(x * 1000.0 for x in batch.latencies)
    p50, p99 = (
        (statistics.median(latencies_ms), statistics.quantiles(latencies_ms, n=100)[98])
        if len(latencies_ms) >= 2
        else (0.0, 0.0)
    )
    s, ms, count = "s", "ms", "count"
    return {
        "graph.load_graph_s": (span("graph.load_graph").total, s),
        "data.load_dataset_self_s": (span("data.load_dataset").self_time, s),
        "graph.edge_relations_s": (span("graph.edge_relations").total, s),
        "graph.triples": (span("graph.load_graph").counters.get("triples", 0), count),
        "symbolic.propagate_s": (propagate.total, s),
        "symbolic.propagate_calls": (propagate.calls, count),
        "symbolic.propagate_entries_out": (propagate.counters.get("entries_out", 0), count),
        "symbolic.retain_s": (retain.total, s),
        "symbolic.retain_kept_ratio": (
            ratio(retain.counters.get("entries_out", 0), retain.counters.get("entries_in", 0)),
            "ratio",
        ),
        "symbolic.psub_update_s": (psub.total, s),
        "symbolic.psub_entries": (psub.last.get("entries", 0), count),
        "symbolic.extract_s": (extract.total, s),
        "symbolic.positives": (extract.last.get("pairs", 0), count),
        "symbolic.positive_precision": (
            ratio(extract.last.get("correct", 0), extract.last.get("pairs", 0)),
            "ratio",
        ),
        "embedder.train_s": (train.total, s),
        "embedder.epochs": (train.counters.get("epochs", 0), count),
        "embedder.epoch_ms": (1000.0 * ratio(train.total, train.counters.get("epochs", 0)), ms),
        "embedder.train_positives": (train.last.get("positives", 0), count),
        "embedder.negative_pool": (train.last.get("negative_pool", 0), count),
        "embedder.final_loss": (train.last.get("final_loss", 0.0), "loss"),
        "mem.peak_after_em_mb": (out.rss_after_em, "MB"),
        "embedder.rank_candidates_s": (rank.total, s),
        "embedder.rank_candidates_calls": (rank.calls, count),
        "embedder.score_pair_s": (score.total, s),
        "embedder.score_pair_calls": (score.calls, count),
        "em.top_candidates_s": (span("em.top_candidates").total, s),
        "em.m_step_self_s": (span("em.m_step").self_time, s),
        "em.fuse_self_s": (fuse.self_time, s),
        "mem.peak_after_fuse_mb": (out.rss_after_fuse, "MB"),
        "embedder.greedy_s": (greedy.total, s),
        "embedder.greedy_offered": (greedy.counters.get("offered", 0), count),
        "embedder.greedy_accepted": (greedy.counters.get("accepted", 0), count),
        "em.e_step_self_s": (span("em.e_step").self_time, s),
        "em.init_state_self_s": (span("em.init_state").self_time, s),
        "em.inferred_pairs_last": (last.inferred_pairs, count),
        "em.val_precision_last": (last.validation_precision or 0.0, "ratio"),
        "em.pairs_observed": (len(by_origin[Origin.OBSERVED]), count),
        "em.pairs_symbolic": (len(by_origin[Origin.SYMBOLIC]), count),
        "em.precision_symbolic": (origin_precision(Origin.SYMBOLIC), "ratio"),
        "em.pairs_neural": (len(by_origin[Origin.NEURAL]), count),
        "em.precision_neural": (origin_precision(Origin.NEURAL), "ratio"),
        "explain.bfs_s": (span("explain.bfs_reachable").total, s),
        "explain.self_s": (explain.self_time, s),
        "explain.query_p50_ms": (p50, ms),
        "explain.query_p99_ms": (p99, ms),
        "explain.explained_share": (ratio(batch.explained, batch.queries), "ratio"),
        "explain.rules_per_query": (ratio(batch.rules, batch.queries), count),
        "trace.align_s": (align_s, s),
        "trace.overhead_s": (align_s - untraced_align_s, s),
        "share.symbolic": (ratio(outermost_seconds(tracer.spans, "symbolic"), align_s), "ratio"),
        "share.embedder_train": (ratio(train.total, align_s), "ratio"),
        "share.rank_fuse": (ratio(fuse.total, align_s), "ratio"),
    }
