"""Tests of the benchmark's own parts: generators, output checks, tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import generators  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, outermost_seconds, summarize  # noqa: E402

SMALL_NOISY = dict(n_entities=600, n_relations=8, n_triples=1800)


def _load_conftest():
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        pytest.skip("tests/conftest.py not present")
    spec = importlib.util.spec_from_file_location("kgalign_suite_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("sizes", [(500, 20, 1500), (60, 4, 150)])
def test_isomorphic_copy_matches_suite_generator(sizes):
    conftest = _load_conftest()
    pair, gold = conftest.isomorphic_pair(407, *sizes)
    ours = generators.isomorphic_pair(407, *sizes)
    assert list(ours.source) == pair.source.triple_records()
    assert list(ours.target) == pair.target.triple_records()
    expected = [
        (pair.source.entity_labels[s], pair.target.entity_labels[t]) for s, t in sorted(gold.items())
    ]
    assert list(ours.links) == expected


def test_noisy_pair_is_a_function_of_the_seed():
    first = generators.noisy_pair(11, **SMALL_NOISY)
    assert generators.noisy_pair(11, **SMALL_NOISY) == first
    assert generators.noisy_pair(12, **SMALL_NOISY) != first


@pytest.mark.parametrize(
    "make",
    [
        lambda: generators.noisy_pair(407),
        lambda: generators.noisy_pair(5, **SMALL_NOISY),
        lambda: generators.isomorphic_pair(407, 5000, 40, 15000),
    ],
    ids=["noisy-10k", "noisy-small", "iso-5000"],
)
def test_every_gold_entity_exists_in_both_graphs(make):
    dataset = make()
    src = {e for h, _, t in dataset.source for e in (h, t)}
    tgt = {e for h, _, t in dataset.target for e in (h, t)}
    assert dataset.links
    assert all(s in src and t in tgt for s, t in dataset.links)
    assert len({s for s, _ in dataset.links}) == len(dataset.links)
    assert len({t for _, t in dataset.links}) == len(dataset.links)
    assert len(set(dataset.source)) == len(dataset.source)
    assert len(set(dataset.target)) == len(dataset.target)


def test_noisy_pair_has_the_configured_noise():
    ds = generators.noisy_pair(3, **SMALL_NOISY)
    src_rels = {r for _, r, _ in ds.source}
    tgt_rels = {r for _, r, _ in ds.target}
    assert "src_r0" in src_rels
    assert {"tgt_r0a", "tgt_r0b"} <= tgt_rels and "tgt_r0" not in tgt_rels
    n_dangling = round(generators.DANGLING * SMALL_NOISY["n_entities"])
    for records, prefix in ((ds.source, "src_d"), (ds.target, "tgt_d")):
        dangling = {e for h, _, t in records for e in (h, t) if e.startswith(prefix)}
        assert len(dangling) == n_dangling
        base = sum(1 for h, _, t in records if not (h.startswith(prefix) or t.startswith(prefix)))
        assert 0.85 * SMALL_NOISY["n_triples"] < base < 0.95 * SMALL_NOISY["n_triples"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One traced pipeline pass over a small relabeled copy in joint mode."""
    from kgalign import data

    directory = tmp_path_factory.mktemp("iso")
    generators.write_dataset(generators.isomorphic_pair(7, 80, 5, 240), directory)
    workload = dataclasses.replace(
        workloads.WORKLOADS["joint-iso500"], iterations=2, epochs=3, floor=0.0
    )
    bundle = data.load_dataset(directory)
    with Tracer(dict(bundle.links)) as tracer:
        out = workloads.align_once(data.load_dataset(directory), workload, 7)
        batch = workloads.explain_batch(out, 7)
    return workload, out, batch, tracer


def test_outputs_of_a_real_run_pass_the_checks(small_run):
    workload, out, batch, _ = small_run
    assert workloads.check_outputs(out, workload) == []
    assert batch.failed == 0 and batch.queries == workloads.EXPLAIN_QUERIES
    assert len(batch.pass_rates) == 1 and len(batch.latencies) == workloads.EXPLAIN_QUERIES
    assert batch.pass_rates[0] > 0
    assert batch.explained > 0


def test_checks_catch_broken_outputs(small_run):
    workload, out, _, _ = small_run
    s, t, v, origin = next(p for p in out.fused.binary if p[3] is not workloads.Origin.OBSERVED)
    train_target = out.train.pairs[0][1]
    broken_binary = out.fused.binary + ((s + 10_000, t, v, origin),)
    rankings = dict(out.fused.rankings)
    first = next(iter(rankings))
    rankings[first] = [train_target] + rankings[first]
    broken = dataclasses.replace(
        out, fused=dataclasses.replace(out.fused, binary=broken_binary, rankings=rankings)
    )
    problems = workloads.check_outputs(broken, workload)
    assert any("one-to-one" in p for p in problems)
    assert any("train target" in p or "longer than" in p for p in problems)
    strict = dataclasses.replace(workload, floor=1.01)
    problems = workloads.check_outputs(out, strict)
    assert any("hit1" in p for p in problems) and any("recall" in p for p in problems)


def test_tracer_records_nested_spans_and_restores_attributes(small_run):
    import kgalign.em as em
    import kgalign.symbolic as symbolic
    from kgalign.graph import KnowledgeGraphPair

    _, out, batch, tracer = small_run
    assert not hasattr(em.run_em, "__wrapped__")
    assert not hasattr(symbolic.propagate_entity_scores, "__wrapped__")
    assert not hasattr(KnowledgeGraphPair.edge_relations, "__wrapped__")

    spans = tracer.spans
    by_name = summarize(spans)
    for name in (
        "data.load_dataset",
        "graph.load_graph",
        "graph.edge_relations",
        "em.run_em",
        "symbolic.propagate_entity_scores",
        "embedder.train",
        "embedder.rank_candidates",
        "explain.bfs_reachable",
    ):
        assert by_name[name].calls > 0, name
    assert by_name["embedder.train"].counters["epochs"] == 2 * 3
    assert by_name["explain.explain"].calls == batch.queries
    for span in spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert all(agg.self_time >= -1e-9 for agg in by_name.values())
    assert all(s.parent is not None for s in spans if s.name == "symbolic.propagate_entity_scores")
    assert 0.0 < outermost_seconds(spans, "symbolic") <= out.seconds

    metrics = workloads.layer_metrics(tracer, out, batch, dict(out.bundle.links), out.seconds)
    assert all(value == value for value, _ in metrics.values())
    assert metrics["embedder.epochs"][0] == 6


def test_runs_report_every_declared_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_SECONDS", 0.0)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = dataclasses.replace(
        workloads.WORKLOADS["joint-iso500"],
        make=lambda seed: generators.isomorphic_pair(seed, 80, 5, 240),
        iterations=2,
        epochs=3,
        floor=0.0,
    )
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = workloads.run(tiny, 7, 0.0, trace, tmp_path)
        assert result.correct and result.failed == 0, result.details["problems"]
        units = {name: unit for name, (_, unit) in result.metrics.items()}
        assert units == {m["name"]: m["unit"] for m in spec[key]}


def test_entry_point_lists_every_workload():
    import run

    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "joint-iso500", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
