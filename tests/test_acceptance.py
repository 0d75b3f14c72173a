"""End-to-end acceptance gates for the alignment pipeline.

Each test covers one release criterion and prints a single verdict line
(PASS, FAIL, or SKIP) with the measured numbers, bypassing capture so
the line is visible in any run.  Thresholds were frozen from fixture
runs; the reasoning lives alongside the calibration data outside the
package.
"""

from __future__ import annotations

import importlib.util
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import (
    isomorphic_pair,
    matched_psub,
    one_to_one,
    psub_dicts,
    random_labels,
    random_pair,
    split_gold,
)
from kgalign import data
from kgalign import embedder as emb
from kgalign.em import EmConfig, e_step, fuse_predictions, init_state, run_em
from kgalign.explain import explain, hard_anchors, soft_anchors
from kgalign.graph import KnowledgeGraphPair, load_graph
from kgalign.metrics import evaluate_ranking
from kgalign.symbolic import (
    TruthScoreTable,
    compute_functionalities,
    propagate_entity_scores,
    run_symbolic_inference,
    update_subrelation_probs,
)


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _skip(capsys, name: str, reason: str) -> None:
    with capsys.disabled():
        print(f"[SKIP] {name}: {reason}")
    pytest.skip(reason)


def _rows(labels: dict[tuple[int, int], float]) -> dict[int, dict[int, float]]:
    rows: dict[int, dict[int, float]] = {}
    for (s, t), v in labels.items():
        rows.setdefault(s, {})[t] = v
    return rows


def _as_dict(table: TruthScoreTable) -> dict[tuple[int, int], float]:
    return {(s, t): v for s, t, v in table.items()}


def test_symbolic_oracle_equivalence(capsys):
    """Engine math equals dense brute-force evaluation on random graphs."""
    started = time.monotonic()
    rng = np.random.default_rng(20250825)
    worst = 0.0
    pairs_checked = 0
    for case in range(100):
        n_e = 20 + int(rng.integers(11)) if case % 10 == 0 else 6 + int(rng.integers(9))
        n_r = 2 + int(rng.integers(3))
        pair = random_pair(rng, n_entities=n_e, n_relations=n_r, n_triples=int(2.5 * n_e))
        labels = random_labels(rng, pair, max(3, n_e // 2))
        pinned: frozenset[tuple[int, int]] = frozenset()
        if case % 3 == 0:
            pinned = frozenset(list(labels)[:2])
            for key in pinned:
                labels[key] = 1.0
        prev = oracles.table_from_rows(_rows(labels), pinned)

        for kg in (pair.source, pair.target):
            eta = compute_functionalities(kg)
            for d, value in oracles.brute_functionalities(kg).items():
                worst = max(worst, abs(eta[d ^ 1] - value))

        # p_sub from a one-to-one subset, as the M-step feeds it; the sweep reads all of prev
        aligned = one_to_one(labels)
        columns = oracles.offer_columns((s, t, v) for (s, t), v in aligned.items())
        est = update_subrelation_probs(pair, *columns)
        exp_fwd, exp_bwd = oracles.brute_subrelation(pair, aligned)
        est_fwd, est_bwd = psub_dicts(est)
        for key in set(est_fwd) | set(exp_fwd):
            worst = max(worst, abs(est_fwd.get(key, 0.0) - exp_fwd.get(key, 0.0)))
        for key in set(est_bwd) | set(exp_bwd):
            worst = max(worst, abs(est_bwd.get(key, 0.0) - exp_bwd.get(key, 0.0)))

        swept = propagate_entity_scores(
            pair,
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            est,
            prev,
        )
        dense = oracles.brute_propagate(pair, est_fwd, est_bwd, labels, pinned)
        got = _as_dict(swept)
        for key in set(got) | set(dense):
            worst = max(worst, abs(got.get(key, 0.0) - dense.get(key, 0.0)))
        pairs_checked += 1

    elapsed = time.monotonic() - started
    _verdict(
        capsys,
        "symbolic oracle equivalence",
        pairs_checked >= 100 and worst <= 1e-12 and elapsed < 60.0,
        f"{pairs_checked} graph pairs, max abs error {worst:.2e}, {elapsed:.1f}s",
    )


def _chain_fixture(length: int, value: float, same_relation: bool):
    src = load_graph(
        [
            (f"a{i}", f"r{0 if same_relation else i}", f"a{i + 1}")
            for i in range(length)
        ]
    )
    tgt = load_graph(
        [
            (f"b{i}", f"s{0 if same_relation else i}", f"b{i + 1}")
            for i in range(length)
        ]
    )
    pair = KnowledgeGraphPair(source=src, target=tgt)
    mapping = {
        src.relation_ids[name]: tgt.relation_ids["s" + name[1:]]
        for name in src.relation_ids
    }
    seeds = {(src.entity_ids[f"a{length}"], tgt.entity_ids[f"b{length}"])}
    return pair, matched_psub(src, tgt, mapping, value), seeds


def _tree_fixture(value: float):
    records = [
        ("root", "ra", "c0"),
        ("root", "ra", "c1"),
        ("c0", "rb", "g00"),
        ("c0", "rb", "g01"),
        ("c1", "rb", "g10"),
        ("c1", "rb", "g11"),
    ]
    src = load_graph(records)
    tgt = load_graph([(h + "'", r.replace("r", "s"), t + "'") for h, r, t in records])
    pair = KnowledgeGraphPair(source=src, target=tgt)
    mapping = {
        src.relation_ids[name]: tgt.relation_ids["s" + name[1:]]
        for name in src.relation_ids
    }
    seeds = {(src.entity_ids["root"], tgt.entity_ids["root'"])}
    return pair, matched_psub(src, tgt, mapping, value), seeds


def test_long_rule_realization(capsys):
    """L sweeps realize exactly the composed rules of length <= L."""
    started = time.monotonic()
    fixtures = [
        _chain_fixture(4, 0.8, same_relation=False),
        _chain_fixture(4, 0.7, same_relation=True),
        _tree_fixture(0.9),
    ]
    sets_checked = 0
    confidences_checked = 0
    worst = 0.0
    for pair, psub, seeds in fixtures:
        for sweeps in (1, 2, 3):
            table = run_symbolic_inference(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                TruthScoreTable.from_seeds(seeds),
                sweeps=sweeps,
            )
            got = {(s, t) for s, t, _ in table.items()}
            expected = oracles.joint_reachable(pair, seeds, *psub_dicts(psub), sweeps)
            assert got == expected, f"pair set mismatch at {sweeps} sweeps"
            sets_checked += 1

            anchors = hard_anchors(seeds)
            eta_s = compute_functionalities(pair.source)
            eta_t = compute_functionalities(pair.target)
            for s, t, _ in table.items():
                if (s, t) in seeds:
                    continue
                found = explain(
                    pair, (s, t), anchors, eta_s, eta_t, psub,
                    max_len=sweeps, exhaustive=True,
                )
                assert found, f"inferred pair ({s},{t}) has no explanation"
                for ex in found:
                    src_chain = [d ^ 1 for d, _ in reversed(ex.source_path)]
                    tgt_chain = [d ^ 1 for d, _ in reversed(ex.target_path)]
                    recomputed = oracles.rule_confidence(
                        pair,
                        src_chain,
                        tgt_chain,
                        *psub_dicts(psub),
                    )
                    worst = max(worst, abs(ex.confidence - recomputed))
                    confidences_checked += 1

    elapsed = time.monotonic() - started
    _verdict(
        capsys,
        "long-rule realization",
        worst <= 1e-12 and sets_checked == 9 and confidences_checked > 0 and elapsed < 60.0,
        f"{sets_checked} pair-set matches, {confidences_checked} rule confidences, "
        f"max abs error {worst:.2e}, {elapsed:.1f}s",
    )


def _sweep(pair, psub, prev) -> TruthScoreTable:
    return propagate_entity_scores(
        pair,
        compute_functionalities(pair.source),
        compute_functionalities(pair.target),
        psub,
        prev,
    )


def _bounds_cases(rng, n: int) -> str:
    from conftest import random_psub

    for _ in range(n):
        pair = random_pair(rng, n_entities=7, n_relations=2, n_triples=14)
        psub = random_psub(rng, pair)
        out = _sweep(pair, psub, oracles.table_from_rows(_rows(random_labels(rng, pair, 5))))
        for _, _, v in out.items():
            assert 0.0 < v <= 1.0 + 1e-12, "sweep score out of bounds"
    return f"bounds:{n}"


def _monotone_cases(rng, n: int) -> str:
    from conftest import random_psub

    for case in range(n):
        pair = random_pair(rng, n_entities=7, n_relations=2, n_triples=14)
        psub = random_psub(rng, pair)
        labels = random_labels(rng, pair, 5)
        base = _as_dict(_sweep(pair, psub, oracles.table_from_rows(_rows(labels))))
        if case % 2 == 0 or not labels:
            key = (
                int(rng.integers(pair.source.n_entities)),
                int(rng.integers(pair.target.n_entities)),
            )
            while key in labels:
                key = (
                    int(rng.integers(pair.source.n_entities)),
                    int(rng.integers(pair.target.n_entities)),
                )
            labels[key] = float(rng.uniform(0.1, 1.0))
        else:
            key = list(labels)[int(rng.integers(len(labels)))]
            labels[key] = labels[key] + (1.0 - labels[key]) * float(rng.uniform())
        more = _as_dict(_sweep(pair, psub, oracles.table_from_rows(_rows(labels))))
        for pair_key, value in base.items():
            assert more.get(pair_key, 0.0) >= value - 1e-15, "added evidence lowered a score"
    return f"monotonicity:{n}"


def _loop_reference_cases(rng, n: int) -> str:
    from conftest import random_psub

    for case in range(n):
        pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=16)
        psub = random_psub(rng, pair)
        labels = random_labels(rng, pair, 6)
        pinned = frozenset(list(labels)[: case % 3])
        prev = oracles.table_from_rows(_rows(labels), pinned)
        swept = _sweep(pair, psub, prev)
        looped = oracles.table_from_rows(
            oracles.loop_propagate(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                *psub_dicts(psub),
                oracles.table_rows(prev),
            ),
            pinned,
        )
        assert [(s, list(row.items())) for s, row in oracles.table_rows(swept).items()] == [
            (s, list(row.items())) for s, row in oracles.table_rows(looped).items()
        ], "array sweep differs from the dict-loop reference"
    return f"loop-reference:{n}"


def _greedy_cases(rng, n: int) -> str:
    for _ in range(n):
        m = int(rng.integers(0, 40))
        cands = [
            (
                int(rng.integers(8)),
                int(rng.integers(8)),
                float(np.round(rng.uniform(), 3)),
            )
            for _ in range(m)
        ]
        columns = oracles.offer_columns(cands)
        full = oracles.column_tuples(col[emb.greedy_one_to_one(*columns)] for col in columns)
        used_s = [s for s, _, _ in full]
        used_t = [t for _, t, _ in full]
        assert len(used_s) == len(set(used_s)) and len(used_t) == len(set(used_t))
        ranked = sorted(
            {(s, t): v for s, t, v in cands}.items(),
            key=lambda kv: (-kv[1], kv[0][0], kv[0][1]),
        )
        accepted = set((s, t) for s, t, _ in full)
        blocked_s = {s for s, _, _ in full}
        blocked_t = {t for _, t, _ in full}
        for (s, t), v in ranked:
            if (s, t) not in accepted:
                assert s in blocked_s or t in blocked_t, "greedy skipped a free pair"
    return f"greedy-matching:{n}"


def _ranking_cases(rng, n: int) -> str:
    for _ in range(n):
        n_src = int(rng.integers(1, 20))
        gold = {s: int(rng.integers(10)) for s in range(n_src)}
        ranked = {}
        for s in gold:
            if rng.uniform() < 0.1:
                continue
            depth = int(rng.integers(1, 11))
            ranked[s] = list(rng.permutation(10)[:depth])
        report = evaluate_ranking(ranked, gold, ks=(1, 3, 10))
        hits = [report.hits_at[k] for k in (1, 3, 10)]
        assert hits == sorted(hits), "hits@k not monotone in k"
        assert 0.0 <= hits[0] <= report.mrr <= 1.0, "mrr outside its envelope"
        assert report.counts == len(gold)
    return f"ranking-metrics:{n}"


def _within_hops(kg, start: set[int], hops: int) -> set[int]:
    """The entities at most ``hops`` directed edges from ``start``."""
    reached, frontier = set(start), set(start)
    for _ in range(hops):
        frontier = {t for e in frontier for _, t in kg.neighbors(e)} - reached
        reached |= frontier
    return reached


def _norm_cases(rng, n: int) -> str:
    from kgalign.em import Origin
    from kgalign.embedder import Hyperparams, PseudoLabelSet, init_model

    for case in range(n):
        pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=12)
        hp = Hyperparams(dim=8, epochs=case % 3)
        model = init_model(pair, hp, seed=case)
        pairs = [(int(rng.integers(8)), int(rng.integers(8)), 1.0) for _ in range(2)]
        positives = PseudoLabelSet(*oracles.offer_columns(pairs), Origin.OBSERVED)
        emb.train(model, pair, [positives])
        for arr, kg, anchored in (
            (model.ent_source, pair.source, {s for s, _, _ in pairs}),
            (model.ent_target, pair.target, {t for _, t, _ in pairs}),
        ):
            norms = np.linalg.norm(arr, axis=1)
            unit = np.abs(norms - 1.0) <= 1e-12
            assert np.all(unit | (norms == 0.0)), "a feature row is neither unit nor zero"
            near = sorted(_within_hops(kg, anchored, hp.epochs))
            assert unit[near].all(), "an entity near an anchor has no feature"
    return f"unit-norms:{n}"


def _round_trip_cases(rng, n: int, tmp_path: Path) -> str:
    for case in range(n):
        pair = random_pair(rng, n_entities=6, n_relations=2, n_triples=10)
        links = tuple(
            sorted({(int(rng.integers(6)), int(rng.integers(6))) for _ in range(3)})
        )
        bundle = data.DatasetBundle(pair=pair, links=links, provenance={})
        target = tmp_path / "ds"
        oracles.save_dataset(bundle, target)
        loaded = data.load_dataset(target)
        assert oracles.triple_tuples(loaded.pair.source) == oracles.triple_tuples(pair.source)
        assert loaded.pair.target.entity_labels == pair.target.entity_labels
        assert loaded.links == links
    return f"round-trip:{n}"


def test_invariant_suite(capsys, tmp_path):
    """Randomized invariants hold over at least 1000 cases per property."""
    started = time.monotonic()
    rng = np.random.default_rng(20250826)
    checks: list[str] = []
    try:
        checks.append(_bounds_cases(rng, 1000))
        checks.append(_monotone_cases(rng, 1000))
        checks.append(_loop_reference_cases(rng, 1000))
        checks.append(_greedy_cases(rng, 1000))
        checks.append(_ranking_cases(rng, 1000))
        checks.append(_norm_cases(rng, 1000))
        checks.append(_round_trip_cases(rng, 1000, tmp_path))
    except AssertionError as err:
        with capsys.disabled():
            print(f"[FAIL] invariant suite: {err}")
        raise
    elapsed = time.monotonic() - started
    _verdict(
        capsys,
        "invariant suite",
        elapsed < 300.0,
        f"{', '.join(checks)}, {elapsed:.1f}s",
    )


def test_synthetic_end_to_end(capsys):
    """Full loop on a relabeled isomorphic copy: growth, precision, hit@1."""
    started = time.monotonic()
    pair, gold = isomorphic_pair(407, 500, 20, 1500)
    train, test = split_gold(gold, 0.10, 407)
    config = EmConfig(iterations=5, seed=407)

    counts: list[int] = []
    precisions: list[float] = []

    def watch(state) -> None:
        positives = oracles.split_rows(state.last_split)
        correct = sum(1 for s, t, _ in positives if gold.get(s) == t)
        counts.append(len(positives))
        precisions.append(correct / len(positives) if positives else 0.0)

    state = run_em(pair, train, config, validation=test, callback=watch)
    fused = fuse_predictions(state, config, rank_sources=[s for s, _ in test.pairs])
    hits = sum(
        1
        for s, t in test.pairs
        if (ranked := fused.rankings.get(s, [])) and ranked[0] == t
    )
    hit1 = hits / len(test.pairs)
    elapsed = time.monotonic() - started

    grows = all(a <= b for a, b in zip(counts, counts[1:]))
    ok = (
        hit1 >= 0.90
        and grows
        and precisions[0] >= 0.75
        and min(precisions[1:]) >= 0.95
        and elapsed < 600.0
    )
    _verdict(
        capsys,
        "synthetic end-to-end",
        ok,
        f"hit@1 {hit1:.3f} (floor 0.90), inferred {counts} non-decreasing={grows}, "
        f"precision first {precisions[0]:.3f} (floor 0.75) "
        f"then min {min(precisions[1:]):.3f} (floor 0.95), {elapsed:.1f}s",
    )


def test_low_resource_trend(capsys):
    """Held-out hit@1 is at least 0.95 at every seed ratio, down to 1%, and
    does not degrade as the ratio increases.  The SGD embedder read 0.004
    and 0.659 at 1% and 5%."""
    started = time.monotonic()
    ratios = (0.01, 0.05, 0.10, 0.20)
    scores: list[float] = []
    for ratio in ratios:
        pair, gold = isomorphic_pair(407, 500, 20, 1500)
        train, test = split_gold(gold, ratio, 407)
        config = EmConfig(iterations=5, seed=407)
        state = run_em(pair, train, config, validation=test)
        fused = fuse_predictions(state, config, rank_sources=[s for s, _ in test.pairs])
        hits = sum(
            1
            for s, t in test.pairs
            if (ranked := fused.rankings.get(s, [])) and ranked[0] == t
        )
        scores.append(hits / len(test.pairs))
    elapsed = time.monotonic() - started
    trend = all(a <= b for a, b in zip(scores, scores[1:]))
    floor = min(scores) >= 0.95
    detail = ", ".join(f"{r:.0%}->{h:.3f}" for r, h in zip(ratios, scores))
    _verdict(
        capsys,
        "low-resource trend",
        trend and floor and elapsed < 1200.0,
        f"hit@1 by seed ratio {detail} (floor 0.95), non-decreasing={trend}, {elapsed:.1f}s",
    )


def _bench_generators(monkeypatch, capsys, name: str):
    """``bench/generators.py``, loaded read-only as a fresh module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generators.py"
    if not path.is_file():
        _skip(capsys, name, "bench/generators.py not present")
    spec = importlib.util.spec_from_file_location("kgalign_bench_generators", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ratio", [0.05, 0.20])
def test_joint_keeps_pace_on_noisy_pair(capsys, monkeypatch, tmp_path, ratio):
    """Joint mode stays level with symbolic-only on noisy pairs at 5% and
    20% seeds, at each of the generator seeds 407-411.

    Each pair drops 30% of the base triples on each side.  Joint binary
    hit@1 must be at least symbolic-only's less 0.05, and so must joint
    ranked MRR; joint mode's inferred positives must not fall below half
    of the first round's.

    At 5% seeds, binary hit@1 by generator seed read:

    | mode | 407 | 408 | 409 | 410 | 411 |
    | --- | --- | --- | --- | --- | --- |
    | symbolic-only | 0.790 | 0.735 | 0.763 | 0.790 | 0.756 |
    | joint, SGD embedder | 0.782 | 0.618 | 0.234 | 0.692 | 0.738 |
    | joint, anchor propagation | 0.813 | 0.774 | 0.822 | 0.816 | 0.806 |

    The SGD embedder failed the gate at seeds 408, 409 and 410.
    """
    name = f"joint keeps pace on noisy pairs, {ratio:.0%} seeds"
    generators = _bench_generators(monkeypatch, capsys, name)
    monkeypatch.setattr(generators, "DROP", 0.30)
    details, failed = [], []
    for seed in range(407, 412):
        directory = tmp_path / str(seed)
        generators.write_dataset(generators.noisy_pair(seed, 1000, 10, 3000), directory)
        bundle = data.load_dataset(directory)
        train, valid, test = data.split_seed(bundle.links, ratio, 0.05, 407)
        hit1: dict[bool, float] = {}
        mrr: dict[bool, float] = {}
        inferred: dict[bool, list[int]] = {}
        for symbolic_only in (False, True):
            config = EmConfig(seed=407, symbolic_only=symbolic_only)
            state = run_em(bundle.pair, train, config, validation=valid)
            fused = fuse_predictions(state, config, rank_sources=[s for s, _ in test.pairs])
            binary = {s: t for s, t, _, _ in fused.binary}
            hit1[symbolic_only] = sum(binary.get(s) == t for s, t in test.pairs) / len(test.pairs)
            mrr[symbolic_only] = evaluate_ranking(fused.rankings, test.by_source).mrr
            inferred[symbolic_only] = [st.inferred_pairs for st in state.history]
        joint = inferred[False]
        if not (
            hit1[False] >= hit1[True] - 0.05
            and mrr[False] >= mrr[True] - 0.05
            and joint[-1] >= joint[0] / 2
        ):
            failed.append(seed)
        details.append(
            f"seed {seed}: hit@1 {hit1[False]:.3f} vs {hit1[True]:.3f}, "
            f"MRR {mrr[False]:.3f} vs {mrr[True]:.3f}, inferred {joint}"
        )
    _verdict(
        capsys,
        name,
        not failed,
        f"joint vs symbolic-only (margins 0.05; last inferred >= first / 2): "
        f"{'; '.join(details)}; failed at {failed or 'no seed'}",
    )


def test_dbp15k_symbolic_baseline(capsys):
    """Rule-only recall on condensed DBP15K stays near the reference values."""
    root = os.environ.get("KGALIGN_DBP15K")
    name = "dbp15k symbolic baseline"
    if not root:
        _skip(capsys, name, "KGALIGN_DBP15K is not set")
    expected = {"ja_en": 0.565, "fr_en": 0.584, "zh_en": 0.543}
    missing = [d for d in expected if not (Path(root) / d).is_dir()]
    if missing:
        _skip(capsys, name, f"missing dataset directories: {', '.join(missing)}")

    results: dict[str, float] = {}
    started = time.monotonic()
    for subdir, reference in expected.items():
        bundle = data.load_dataset(Path(root) / subdir)
        train, _, test = data.split_seed(bundle.links, 0.20, 0.0, seed=0)
        config = EmConfig(iterations=10, seed=0, symbolic_only=True)
        state = run_em(bundle.pair, train, config)
        fused = fuse_predictions(state, config, rank_sources=[s for s, _ in test.pairs])
        by_source = {s: t for s, t, _, _ in fused.binary}
        recall = sum(1 for s, t in test.pairs if by_source.get(s) == t) / len(test.pairs)
        results[subdir] = recall
        assert abs(recall - reference) <= 0.05, (
            f"{subdir} recall {recall:.3f} strays from {reference:.3f}"
        )
    elapsed = time.monotonic() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = ", ".join(f"{k}={v:.3f}" for k, v in results.items())
    _verdict(
        capsys,
        name,
        elapsed < 3600.0 and peak_mb < 4 * 868.0,
        f"{detail}, {elapsed:.0f}s, peak {peak_mb:.0f} MB",
    )


def test_explainer_separation(capsys):
    """True pairs earn stronger top rules than corrupted ones."""
    started = time.monotonic()
    pair, gold = isomorphic_pair(407, 500, 20, 1500)
    train, test = split_gold(gold, 0.10, 407)
    config = EmConfig(iterations=3, seed=407, symbolic_only=True)
    state = run_em(pair, train, config)
    anchors = soft_anchors(
        train.pairs, oracles.column_tuples((state.last_split.src, state.last_split.tgt))
    )

    rng = np.random.default_rng(407)
    sources = [s for s, _ in test.pairs]
    corrupted = []
    for s, t in test.pairs:
        other = int(rng.choice(sources))
        while gold[other] == t:
            other = int(rng.choice(sources))
        corrupted.append((s, gold[other]))

    def top_confidence(query: tuple[int, int]) -> float:
        found = explain(
            pair,
            query,
            anchors,
            state.eta_source,
            state.eta_target,
            state.psub,
            max_len=2,
        )
        return found[0].confidence if found else 0.0

    positive_top = [top_confidence(q) for q in test.pairs]
    negative_top = [top_confidence(q) for q in corrupted]
    pos_median = float(np.median(positive_top))
    neg_median = float(np.median(negative_top))
    empty_fraction = sum(1 for v in negative_top if v == 0.0) / len(negative_top)
    elapsed = time.monotonic() - started
    _verdict(
        capsys,
        "explainer separation",
        pos_median > neg_median and empty_fraction >= 0.5 and elapsed < 120.0,
        f"median top confidence {pos_median:.3f} vs {neg_median:.3f}, "
        f"{empty_fraction:.1%} of corrupted pairs unexplained, {elapsed:.1f}s",
    )
