"""Tests for the probabilistic rule engine."""

from __future__ import annotations

import numpy as np
import pytest

from kgalign import symbolic
from kgalign.graph import KnowledgeGraph, KnowledgeGraphPair, load_graph, pack_direction
from kgalign.symbolic import (
    FunctionalityTable,
    TruthScoreTable,
    compute_functionalities,
    extract_positive_pairs,
    propagate_entity_scores,
    retain_best,
    run_symbolic_inference,
    update_subrelation_probs,
)

import oracles
from conftest import (
    chain_pair,
    matched_psub,
    psub_dicts,
    psub_table,
    random_labels,
    random_pair,
    random_psub,
)


def as_dict(table: TruthScoreTable) -> dict[tuple[int, int], float]:
    return {(s, t): v for s, t, v in table.items()}


class TestFunctionalities:
    def test_single_triple_both_one(self):
        kg = load_graph([("a", "r", "x")])
        eta = compute_functionalities(kg)
        assert eta.values[pack_direction(0, False)] == 1.0
        assert eta.values[pack_direction(0, True)] == 1.0

    def test_two_distinct_tails_over_three(self):
        kg = load_graph([("a", "r", "x"), ("b", "r", "x"), ("c", "r", "y")])
        eta = compute_functionalities(kg)
        assert eta.values[pack_direction(0, True)] == pytest.approx(2 / 3, abs=0)

    def test_one_head_two_pairs(self):
        kg = load_graph([("a", "r", "x"), ("a", "r", "y")])
        eta = compute_functionalities(kg)
        assert eta.values[pack_direction(0, False)] == 0.5

    def test_absent_without_triples(self):
        kg = load_graph([("a", "r", "x")])
        eta = compute_functionalities(kg)
        from kgalign.graph import DirectedRelation

        assert DirectedRelation(0, False) in eta

    def test_matches_brute_force(self, rng):
        # the table stores distinct-first-endpoint ratios at index d, so
        # the distinct-second-endpoint oracle lands at the flipped slot
        for _ in range(60):
            kg = load_graph(_random_records(rng))
            eta = compute_functionalities(kg)
            brute = oracles.brute_functionalities(kg)
            for d, expected in brute.items():
                np.testing.assert_allclose(eta.values[d ^ 1], expected, rtol=0, atol=0)
                np.testing.assert_allclose(eta.reverse_values[d], expected, rtol=0, atol=0)

    def test_matches_loop_reference(self, rng):
        # integer ratios, so the counts must give exactly the set loop's values
        for _ in range(200):
            kg = load_graph(_random_records(rng))
            assert np.array_equal(compute_functionalities(kg).values, oracles.loop_functionalities(kg))
        # a relation without triples stays 0 on both sides
        kg = KnowledgeGraph(["a", "b"], ["r", "unused"], [(0, 0, 1), (1, 0, 0)])
        values = compute_functionalities(kg).values
        assert np.array_equal(values, oracles.loop_functionalities(kg))
        assert values.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_bounds_invariant(self, rng):
        for _ in range(60):
            kg = load_graph(_random_records(rng))
            eta = compute_functionalities(kg)
            present = eta.values[eta.values > 0]
            assert np.all(present <= 1.0)
            assert np.all(present > 0.0)


def _random_records(rng) -> list[tuple[str, str, str]]:
    n_e = int(rng.integers(3, 10))
    n_r = int(rng.integers(1, 4))
    return [
        (
            f"e{rng.integers(n_e)}",
            f"r{rng.integers(n_r)}",
            f"e{rng.integers(n_e)}",
        )
        for _ in range(int(rng.integers(4, 25)))
    ]


class TestPropagate:
    def _single_evidence_pair(self):
        src = load_graph([("e", "r", "n")])
        tgt = load_graph([("e'", "r'", "n'")])
        return KnowledgeGraphPair(source=src, target=tgt)

    def test_perfect_evidence(self):
        pair = self._single_evidence_pair()
        eta_one_s = FunctionalityTable(np.ones(2))
        eta_one_t = FunctionalityTable(np.ones(2))
        psub = matched_psub(pair.source, pair.target, {0: 0}, 1.0)
        prev = TruthScoreTable.from_seeds([(1, 1)])
        out = propagate_entity_scores(pair, eta_one_s, eta_one_t, psub, prev)
        assert out.score(0, 0) == 1.0

    def test_partial_evidence_single(self):
        pair = self._single_evidence_pair()
        eta_half = FunctionalityTable(np.full(2, 0.5))
        psub = matched_psub(pair.source, pair.target, {0: 0}, 0.8)
        prev = TruthScoreTable.from_seeds([(1, 1)])
        out = propagate_entity_scores(pair, eta_half, FunctionalityTable(np.full(2, 0.5)), psub, prev)
        # 1 - (1 - 0.4)(1 - 0.4)
        assert out.score(0, 0) == pytest.approx(0.64, abs=1e-15)

    def test_two_independent_evidences(self):
        src = load_graph([("e", "r", "n1"), ("e", "s", "n2")])
        tgt = load_graph([("e'", "r'", "n1'"), ("e'", "s'", "n2'")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        eta_s = FunctionalityTable(np.full(4, 0.5))
        eta_t = FunctionalityTable(np.full(4, 0.5))
        psub = matched_psub(src, tgt, {0: 0, 1: 1}, 0.8)
        prev = TruthScoreTable.from_seeds([(1, 1), (2, 2)])
        out = propagate_entity_scores(pair, eta_s, eta_t, psub, prev)
        assert out.score(0, 0) == pytest.approx(0.8704, abs=1e-12)

    def test_no_evidence_not_stored(self):
        pair = self._single_evidence_pair()
        eta = FunctionalityTable(np.ones(2))
        psub = psub_table(pair.source, pair.target, {}, {})
        prev = TruthScoreTable.from_seeds([(1, 1)])
        out = propagate_entity_scores(pair, eta, eta, psub, prev)
        assert (0, 0) not in out
        assert out.score(1, 1) == 1.0  # pinned survives

    def test_prev_not_mutated(self):
        pair, psub, seeds = chain_pair()
        eta_s = compute_functionalities(pair.source)
        eta_t = compute_functionalities(pair.target)
        before = as_dict(seeds)
        propagate_entity_scores(pair, eta_s, eta_t, psub, seeds)
        assert as_dict(seeds) == before

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=16)
            psub = random_psub(rng, pair)
            labels = random_labels(rng, pair, n_labels=6)
            pinned = frozenset(list(labels)[:2])
            for p in pinned:
                labels[p] = 1.0
            prev = TruthScoreTable(
                rows=_rows_from(labels), pinned=pinned
            )
            out = propagate_entity_scores(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                prev,
            )
            expected = oracles.brute_propagate(
                pair,
                *psub_dicts(psub),
                labels,
                pinned,
            )
            got = as_dict(out)
            assert set(got) == set(expected)
            for key, val in expected.items():
                np.testing.assert_allclose(got[key], val, atol=1e-13, rtol=0)

    def test_scores_bounded(self, rng):
        for _ in range(40):
            pair = random_pair(rng, n_entities=7, n_relations=2, n_triples=14)
            psub = random_psub(rng, pair)
            prev = TruthScoreTable(rows=_rows_from(random_labels(rng, pair, 5)))
            out = propagate_entity_scores(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                prev,
            )
            for _, _, v in out.items():
                assert 0.0 < v <= 1.0

    def test_monotone_in_added_evidence(self, rng):
        # adding one more labeled neighbor pair never lowers a score
        for _ in range(40):
            pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
            psub = random_psub(rng, pair, density=0.7)
            labels = random_labels(rng, pair, 6)
            eta_s = compute_functionalities(pair.source)
            eta_t = compute_functionalities(pair.target)
            base = propagate_entity_scores(
                pair, eta_s, eta_t, psub, TruthScoreTable(rows=_rows_from(labels))
            )
            extra = dict(labels)
            while True:
                key = (
                    int(rng.integers(pair.source.n_entities)),
                    int(rng.integers(pair.target.n_entities)),
                )
                if key not in extra:
                    break
            extra[key] = float(rng.uniform(0.2, 1.0))
            more = propagate_entity_scores(
                pair, eta_s, eta_t, psub, TruthScoreTable(rows=_rows_from(extra))
            )
            for (s, t), v in as_dict(base).items():
                assert as_dict(more).get((s, t), 0.0) >= v - 1e-12

    def test_matches_loop_reference(self, rng, monkeypatch):
        for case in range(60):
            # a small block puts block boundaries between entities
            monkeypatch.setattr(symbolic, "SWEEP_BLOCK_TERMS", 3 if case % 2 else 1 << 14)
            pair = random_pair(rng, n_entities=12, n_relations=3, n_triples=30)
            psub = random_psub(rng, pair, density=0.6)
            labels = random_labels(rng, pair, 8 if case % 10 else 0)
            pinned = frozenset(list(labels)[:2])
            _assert_matches_loop(pair, psub, TruthScoreTable(rows=_rows_from(labels), pinned=pinned))

    def test_matches_loop_reference_isolated_and_hub(self, rng, monkeypatch):
        # a hub whose terms outnumber small blocks, next to an unlabeled
        # component whose entities get no terms at all
        def graph(prefix, perm):
            records = [(f"{prefix}hub", f"r{i % 3}", f"{prefix}{perm[i]}") for i in range(40)]
            records += [(f"{prefix}{perm[i]}", "r1", f"{prefix}{perm[i + 1]}") for i in range(39)]
            records += [(f"{prefix}x", "r0", f"{prefix}y"), (f"{prefix}y", "r2", f"{prefix}z")]
            return load_graph(records)

        src, tgt = graph("a", range(40)), graph("b", rng.permutation(40))
        pair = KnowledgeGraphPair(source=src, target=tgt)
        psub = random_psub(rng, pair, density=0.8)
        spokes = [(src.entity_ids[f"a{i}"], tgt.entity_ids[f"b{i}"]) for i in range(40)]
        labels = {spokes[int(i)]: float(rng.uniform(0.05, 1.0)) for i in rng.permutation(40)[:25]}
        prev = TruthScoreTable(rows=_rows_from(labels), pinned=frozenset(list(labels)[:3]))
        isolated = {src.entity_ids[f"a{x}"] for x in "xyz"}
        for block in (1 << 14, 64, 7, 1):
            monkeypatch.setattr(symbolic, "SWEEP_BLOCK_TERMS", block)
            table = prev
            for _ in range(3):
                table = _assert_matches_loop(pair, psub, table)
                assert not isolated & set(table.rows)


def _ordered(table: TruthScoreTable) -> list[tuple[int, list[tuple[int, float]]]]:
    return [(s, list(row.items())) for s, row in table.rows.items()]


def _assert_matches_loop(pair, psub, prev: TruthScoreTable) -> TruthScoreTable:
    """The array sweep equals the dict loop: values, row and key order."""
    eta_s = compute_functionalities(pair.source)
    eta_t = compute_functionalities(pair.target)
    got = propagate_entity_scores(pair, eta_s, eta_t, psub, prev)
    rows = oracles.loop_propagate(
        pair,
        eta_s.reverse_values,
        eta_t.reverse_values,
        *psub_dicts(psub),
        prev.rows,
    )
    assert _ordered(got) == _ordered(TruthScoreTable(rows=rows, pinned=prev.pinned))
    return got


def _rows_from(labels: dict[tuple[int, int], float]) -> dict[int, dict[int, float]]:
    rows: dict[int, dict[int, float]] = {}
    for (s, t), v in labels.items():
        rows.setdefault(s, {})[t] = v
    return rows


class TestSubrelationUpdate:
    def test_full_support(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("a'", "r'", "b'")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        labels = TruthScoreTable(rows={0: {0: 1.0}, 1: {1: 1.0}})
        psub = update_subrelation_probs(pair, labels, eps=0.0)
        assert psub.source_in_target[pack_direction(0, False), pack_direction(0, False)] == 1.0

    def test_no_tail_support_absent(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("a'", "r'", "b'")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        labels = TruthScoreTable(rows={0: {0: 1.0}})
        psub = update_subrelation_probs(pair, labels, eps=0.0)
        assert psub.source_in_target[pack_direction(0, False), pack_direction(0, False)] == 0.0
        assert len(psub) == 0

    def test_half_support(self):
        src = load_graph([("a", "r", "b"), ("c", "r", "d")])
        tgt = load_graph([("a'", "r'", "b'"), ("c2'", "s'", "d2'")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        labels = TruthScoreTable(
            rows={
                src.entity_ids["a"]: {tgt.entity_ids["a'"]: 1.0},
                src.entity_ids["b"]: {tgt.entity_ids["b'"]: 1.0},
                src.entity_ids["c"]: {tgt.entity_ids["c2'"]: 1.0},
                src.entity_ids["d"]: {tgt.entity_ids["d2'"]: 1.0},
            }
        )
        psub = update_subrelation_probs(pair, labels, eps=0.0)
        r = pack_direction(src.relation_ids["r"], False)
        rp = pack_direction(tgt.relation_ids["r'"], False)
        assert psub.source_in_target[r, rp] == 0.5

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            pair = random_pair(rng, n_entities=7, n_relations=2, n_triples=12)
            labels = random_labels(rng, pair, n_labels=7)
            table = TruthScoreTable(rows=_rows_from(labels))
            got = update_subrelation_probs(pair, table)
            exp_fwd, exp_bwd = oracles.brute_subrelation(pair, labels)
            got_fwd, got_bwd = psub_dicts(got)
            assert set(got_fwd) == set(exp_fwd)
            assert set(got_bwd) == set(exp_bwd)
            for key, val in exp_fwd.items():
                np.testing.assert_allclose(got_fwd[key], val, atol=1e-13, rtol=0)
            for key, val in exp_bwd.items():
                np.testing.assert_allclose(got_bwd[key], val, atol=1e-13, rtol=0)

    def test_mirror_symmetry(self, rng):
        for _ in range(30):
            pair = random_pair(rng, n_entities=7, n_relations=3, n_triples=14)
            table = TruthScoreTable(rows=_rows_from(random_labels(rng, pair, 6)))
            psub = update_subrelation_probs(pair, table)
            flip_s = np.arange(2 * pair.source.n_relations) ^ 1
            flip_t = np.arange(2 * pair.target.n_relations) ^ 1
            fwd, bwd = psub.source_in_target, psub.target_in_source
            assert np.array_equal(fwd[np.ix_(flip_s, flip_t)], fwd)
            assert np.array_equal(bwd[np.ix_(flip_t, flip_s)], bwd)

    def test_matches_loop_reference(self, rng):
        for _ in range(120):
            # few relations give parallel edges and many triples per (d, d') sum
            pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=30)
            # and self loops on both sides
            src = load_graph(pair.source.triple_records() + [("a0", "r0", "a0"), ("a3", "r1", "a3")])
            tgt = load_graph(pair.target.triple_records() + [("b0", "s0", "b0"), ("b3", "s1", "b3")])
            pair = KnowledgeGraphPair(source=src, target=tgt)
            # rows of 0 to 3 counterparts, some labels exactly 0 or 1
            rows: dict[int, dict[int, float]] = {}
            for s in range(pair.source.n_entities):
                targets = rng.choice(pair.target.n_entities, int(rng.integers(0, 4)), replace=False)
                values = rng.choice([0.0, 1.0, *rng.uniform(0.05, 1.0, 4)], len(targets))
                rows[s] = {int(t): float(v) for t, v in zip(targets, values)}
            table = TruthScoreTable(rows=rows)
            for kwargs in ({}, {"eps": 0.0, "min_support": 0.0}):
                got = update_subrelation_probs(pair, table, **kwargs)
                expected = psub_table(src, tgt, *oracles.loop_subrelation(pair, rows, **kwargs))
                assert np.array_equal(got.source_in_target, expected.source_in_target)
                assert np.array_equal(got.target_in_source, expected.target_in_source)

    def test_values_bounded(self, rng):
        for _ in range(30):
            pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=16)
            table = TruthScoreTable(rows=_rows_from(random_labels(rng, pair, 8)))
            psub = update_subrelation_probs(pair, table)
            for weights in (psub.source_in_target, psub.target_in_source):
                assert np.all((weights >= 0.0) & (weights <= 1.0 + 1e-12))


class TestRunInference:
    def test_chain_one_sweep(self):
        pair, psub, seeds = chain_pair()
        table = run_symbolic_inference(
            pair,
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            psub,
            seeds,
            sweeps=1,
        )
        b, bp = pair.source.entity_ids["b"], pair.target.entity_ids["b'"]
        a, ap = pair.source.entity_ids["a"], pair.target.entity_ids["a'"]
        assert table.score(b, bp) == 1.0
        assert (a, ap) not in table

    def test_chain_two_sweeps(self):
        pair, psub, seeds = chain_pair()
        table = run_symbolic_inference(
            pair,
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            psub,
            seeds,
            sweeps=2,
        )
        expected = {("a", "a'"), ("b", "b'"), ("c", "c'")}
        got = {
            (pair.source.entity_labels[s], pair.target.entity_labels[t])
            for s, t, _ in table.items()
        }
        assert got == expected
        for _, _, v in table.items():
            assert v == 1.0

    def test_no_seeds_empty(self):
        pair, psub, _ = chain_pair()
        table = run_symbolic_inference(
            pair,
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            psub,
            TruthScoreTable(),
            sweeps=1,
        )
        assert len(table) == 0

    def test_sweep_count_validated(self):
        pair, psub, seeds = chain_pair()
        with pytest.raises(ValueError, match="sweep count"):
            run_symbolic_inference(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                seeds,
                sweeps=0,
            )

    def test_pinned_survive_sweeps(self, rng):
        for _ in range(20):
            pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=16)
            psub = random_psub(rng, pair)
            pins = {
                (int(rng.integers(pair.source.n_entities)), int(rng.integers(pair.target.n_entities)))
                for _ in range(3)
            }
            seeds = TruthScoreTable.from_seeds(pins)
            table = run_symbolic_inference(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                seeds,
                sweeps=3,
            )
            for p in pins:
                assert table.score(*p) == 1.0


class TestRetention:
    def test_argmax_only_by_default(self):
        # (0, 1) loses its row to (0, 0) and its column to (1, 1)
        table = TruthScoreTable(rows={0: {0: 0.9, 1: 0.5}, 1: {1: 0.6}})
        kept = retain_best(table)
        assert as_dict(kept) == {(0, 0): 0.9, (1, 1): 0.6}

    def test_column_best_also_kept(self):
        # (1, 0) loses its row to (1, 1) but is the best in column 0
        table = TruthScoreTable(rows={1: {0: 0.3, 1: 0.8}})
        kept = retain_best(table)
        assert as_dict(kept) == {(1, 0): 0.3, (1, 1): 0.8}

    def test_ties_all_retained(self):
        table = TruthScoreTable(rows={0: {0: 0.7, 1: 0.7}})
        kept = retain_best(table)
        assert as_dict(kept) == {(0, 0): 0.7, (0, 1): 0.7}

    def test_pinned_always_kept(self):
        table = TruthScoreTable(rows={0: {1: 0.9}}, pinned=frozenset({(0, 5)}))
        kept = retain_best(table)
        assert kept.score(0, 5) == 1.0

    def test_rho_widens_the_band(self):
        table = TruthScoreTable(rows={0: {0: 1.0, 1: 0.85}, 1: {0: 0.3, 1: 0.9}})
        strict = retain_best(table, rho=1.0)
        assert set(as_dict(strict)) == {(0, 0), (1, 1)}
        loose = retain_best(table, rho=0.8)
        assert set(as_dict(loose)) == {(0, 0), (0, 1), (1, 1)}

    def test_rho_validated(self):
        with pytest.raises(ValueError, match="retention factor"):
            retain_best(TruthScoreTable(), rho=0.0)

    def test_zero_scores_kept(self):
        # a best starts at 0, so an entry scored 0 ties its empty column
        kept = retain_best(TruthScoreTable(rows={0: {0: 0.0}, 1: {1: 0.5}}))
        assert as_dict(kept) == {(0, 0): 0.0, (1, 1): 0.5}
        kept = retain_best(TruthScoreTable(rows={0: {0: 0.0, 1: 0.2}}))
        assert as_dict(kept) == {(0, 0): 0.0, (0, 1): 0.2}

    def test_matches_loop_reference(self, rng):
        for case in range(300):
            rows, pinned = _random_table_rows(rng, case)
            table = TruthScoreTable(rows=rows, pinned=pinned)
            rho = 1.0 if case % 2 else float(rng.choice([0.5, 0.8, 0.95]))
            got = retain_best(table, rho)
            want = oracles.loop_retain(table.rows, pinned, rho)
            assert _ordered(got) == _ordered(TruthScoreTable(rows=want, pinned=pinned))
            assert got.pinned is table.pinned

    def test_sweep_output_matches_loop_reference(self, rng):
        # rows in first-term order with re-pinned pairs appended
        for case in range(60):
            pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=16)
            labels = random_labels(rng, pair, 6)
            pinned = frozenset(list(labels)[: case % 3]) | {(7, int(rng.integers(8)))}
            table = propagate_entity_scores(
                pair,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                random_psub(rng, pair),
                TruthScoreTable(rows=_rows_from(labels), pinned=pinned),
            )
            for rho in (1.0, 0.7):
                want = oracles.loop_retain(table.rows, pinned, rho)
                assert _ordered(retain_best(table, rho)) == _ordered(TruthScoreTable(rows=want))


def split_rows(split) -> tuple[list[tuple], list[tuple]]:
    """The positives and the negative pool as (s, t, score) rows; the pool's
    (s, t) columns are read from ``negative_pairs``."""
    negative = ~split.positive
    pool = split.negative_pairs
    assert pool.dtype == np.int64
    return (
        oracles.column_tuples(split.positive_columns),
        oracles.column_tuples((pool[:, 0], pool[:, 1], split.val[negative])),
    )


class TestExtractPositives:
    def test_split_by_threshold(self):
        table = TruthScoreTable(rows={0: {0: 0.99}, 1: {1: 0.5}})
        split = extract_positive_pairs(table, 0.9)
        assert split_rows(split) == ([(0, 0, 0.99)], [(1, 1, 0.5)])

    def test_boundary_strict(self):
        table = TruthScoreTable(rows={0: {0: 0.99}})
        split = extract_positive_pairs(table, 0.99)
        assert split_rows(split) == ([], [(0, 0, 0.99)])

    def test_empty_table(self):
        split = extract_positive_pairs(TruthScoreTable(), 0.9)
        assert split_rows(split) == ([], [])

    def test_pinned_excluded(self):
        table = TruthScoreTable(rows={0: {0: 0.95}}, pinned=frozenset({(5, 5)}))
        split = extract_positive_pairs(table, 0.9)
        assert (5, 5, 1.0) not in split_rows(split)[0]

    def test_delta_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            extract_positive_pairs(TruthScoreTable(), 1.0)

    def test_matches_loop_reference(self, rng):
        for case in range(300):
            rows, pinned = _random_table_rows(rng, case)
            table = TruthScoreTable(rows=rows, pinned=pinned)
            delta = float(rng.choice([0.25, 0.5, 0.75, 0.9]))
            split = extract_positive_pairs(table, delta)
            positives, negatives = oracles.loop_extract(table.rows, pinned, delta)
            assert split_rows(split) == (positives, negatives)
            assert split.positives == tuple(positives)


class TestCountedShapes:
    """The shapes the benchmark tracer counts: table entries, split tuples and the pool rows."""

    def test_len_counts_entries(self, rng):
        for case in range(50):
            rows, pinned = _random_table_rows(rng, case)
            table = TruthScoreTable(rows=rows, pinned=pinned)
            assert len(table) == len(list(table.items())) == sum(map(len, table.rows.values()))
            assert len(retain_best(table)) == len(list(retain_best(table).items()))

    def test_positives_are_ascending_tuples(self, rng):
        for case in range(50):
            rows, pinned = _random_table_rows(rng, case)
            split = extract_positive_pairs(TruthScoreTable(rows=rows, pinned=pinned), 0.5)
            assert isinstance(split.positives, tuple)
            assert list(split.positives) == sorted(split.positives)
            for s, t, v in split.positives:
                assert type(s) is int and type(t) is int and type(v) is float
            assert split.negative_pairs.shape == (np.count_nonzero(~split.positive), 2)


def _random_table_rows(rng, case: int) -> tuple[dict[int, dict[int, float]], frozenset[tuple[int, int]]]:
    """Rows in random key order over a small value set (ties at row and
    column maxima, some exact 0s), plus pinned pairs of which some are
    missing from the rows; every tenth case is empty."""
    rows: dict[int, dict[int, float]] = {}
    if case % 10:
        for s in rng.permutation(6)[: int(rng.integers(1, 7))]:
            targets = rng.permutation(6)[: int(rng.integers(0, 5))]
            rows[int(s)] = {int(t): float(rng.choice([0.0, 0.3, 0.6, 0.95, 1.0])) for t in targets}
    entries = [(s, t) for s, row in rows.items() for t in row]
    chosen = [entries[int(i)] for i in rng.permutation(len(entries))[: int(rng.integers(0, 3))]]
    missing = [(int(rng.integers(8)), int(rng.integers(8))) for _ in range(int(rng.integers(0, 3)))]
    return rows, frozenset(chosen + missing)
