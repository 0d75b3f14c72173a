"""Tests for the alternating optimization loop."""

from __future__ import annotations

import numpy as np
import pytest

from kgalign import em
from kgalign.em import (
    EmConfig,
    e_step,
    fuse_predictions,
    init_state,
    m_step,
    run_em,
)
from kgalign.embedder import Hyperparams, Origin, TrainReport
from kgalign.graph import AlignmentSeed, KnowledgeGraphPair, SeedRole, load_graph
from kgalign import symbolic
from kgalign.symbolic import ThresholdSplit, TruthScoreTable, extract_positive_pairs

import oracles
from conftest import isomorphic_pair, matched_psub, psub_dicts, psub_table, random_pair, split_gold


def chain_fixture(n: int = 3):
    """Matched chains s0 -> ... -> s(n-1) and the primed copy."""
    src = load_graph([(f"s{i}", "r", f"s{i + 1}") for i in range(n - 1)])
    tgt = load_graph([(f"t{i}", "r'", f"t{i + 1}") for i in range(n - 1)])
    return KnowledgeGraphPair(source=src, target=tgt)


def train_seed(pairs) -> AlignmentSeed:
    return AlignmentSeed(pairs=tuple(sorted(pairs)), role=SeedRole.TRAIN)


def label_rows(labels) -> list[tuple]:
    return oracles.column_tuples((labels.src, labels.tgt, labels.conf))


def tiny_neural(**overrides) -> Hyperparams:
    base = dict(dim=8, epochs=5, negatives=2)
    base.update(overrides)
    return Hyperparams(**base)


class TestConfig:
    def test_defaults_valid(self):
        EmConfig().validate()

    def test_zero_sweeps_rejected(self):
        with pytest.raises(ValueError, match="rule length"):
            EmConfig(rule_length=0).validate()

    def test_delta_bounds(self):
        with pytest.raises(ValueError, match="delta"):
            EmConfig(delta=1.0).validate()
        with pytest.raises(ValueError, match="delta"):
            EmConfig(delta=0.0).validate()

    def test_iterations_positive(self):
        with pytest.raises(ValueError, match="iterations"):
            EmConfig(iterations=0).validate()

    def test_neural_params_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            EmConfig(neural=Hyperparams(dim=1)).validate()


class TestInitState:
    def test_seeds_pinned(self):
        pair = chain_fixture()
        state = init_state(pair, train_seed([(2, 2)]), EmConfig(symbolic_only=True))
        assert state.truth_scores.score(2, 2) == 1.0
        assert (2, 2) in state.truth_scores.pinned

    def test_symbolic_only_skips_model(self):
        pair = chain_fixture()
        state = init_state(pair, train_seed([(2, 2)]), EmConfig(symbolic_only=True))
        assert state.model is None

    def test_psub_bootstrap_needs_adjacent_seeds(self):
        pair = chain_fixture()
        lone = init_state(pair, train_seed([(2, 2)]), EmConfig(symbolic_only=True))
        assert len(lone.psub) == 0
        adjacent = init_state(
            pair, train_seed([(1, 1), (2, 2)]), EmConfig(symbolic_only=True)
        )
        assert adjacent.psub.source_in_target[0, 0] > 0.999


class TestEStep:
    def test_chain_infers_next_pair(self):
        pair = chain_fixture()
        config = EmConfig(delta=0.9, rule_length=1, symbolic_only=True)
        state = init_state(pair, train_seed([(2, 2)]), config)
        state.psub = matched_psub(pair.source, pair.target, {0: 0})
        e_step(state, config)
        assert oracles.column_tuples(state.last_split.positive_columns) == [(1, 1, 1.0)]

    def test_training_set_is_seeds_plus_inferred(self, monkeypatch):
        pair = chain_fixture()
        config = EmConfig(delta=0.9, rule_length=1, neural=tiny_neural())
        state = init_state(pair, train_seed([(2, 2)]), config)
        state.psub = matched_psub(pair.source, pair.target, {0: 0})
        captured = {}

        def fake_train(model, pair_, positives, negatives_pool=(), origin_weights=None):
            captured["sets"] = positives
            captured["pool"] = np.asarray(negatives_pool).tolist()
            return TrainReport(epoch_losses=[0.0])

        monkeypatch.setattr(em.emb, "train", fake_train)
        e_step(state, config)
        observed, symbolic = captured["sets"]
        assert observed.origin is Origin.OBSERVED
        assert label_rows(observed) == [(2, 2, 1.0)]
        assert symbolic.origin is Origin.SYMBOLIC
        assert label_rows(symbolic) == [(1, 1, 1.0)]
        assert captured["pool"] == []

    def test_below_threshold_goes_to_negative_pool(self, monkeypatch):
        pair = chain_fixture()
        config = EmConfig(delta=0.97, rule_length=1, neural=tiny_neural())
        state = init_state(pair, train_seed([(2, 2)]), config)
        state.psub = matched_psub(pair.source, pair.target, {0: 0}, value=0.8)
        captured = {}

        def fake_train(model, pair_, positives, negatives_pool=(), origin_weights=None):
            captured["sets"] = positives
            captured["pool"] = np.asarray(negatives_pool).tolist()
            return TrainReport(epoch_losses=[0.0])

        monkeypatch.setattr(em.emb, "train", fake_train)
        e_step(state, config)
        _, symbolic = captured["sets"]
        assert label_rows(symbolic) == []
        assert captured["pool"] == [[1, 1]]
        split = state.last_split
        pooled = oracles.column_tuples((split.src, split.tgt, split.val))
        assert pooled == [(1, 1, pytest.approx(0.96, abs=1e-12))]

    def test_psub_untouched(self):
        pair = chain_fixture()
        config = EmConfig(symbolic_only=True)
        state = init_state(pair, train_seed([(1, 1), (2, 2)]), config)
        before = (state.psub.source_in_target.copy(), state.psub.target_in_source.copy())
        e_step(state, config)
        assert np.array_equal(state.psub.source_in_target, before[0])
        assert np.array_equal(state.psub.target_in_source, before[1])


class TestMStep:
    def _stated(self, config):
        pair = chain_fixture(4)
        state = init_state(pair, train_seed([(0, 0)]), config)
        return pair, state

    def test_confident_model_labels_everything(self):
        config = EmConfig(neural=tiny_neural())
        pair, state = self._stated(config)
        state.model.ent_source = np.eye(8)[: pair.source.n_entities].copy()
        state.model.ent_target = np.eye(8)[: pair.target.n_entities].copy()
        m_step(state, config)
        assert state.psub.source_in_target[0, 0] > 0.999
        assert state.psub.target_in_source[0, 0] > 0.999

    def test_orthogonal_model_labels_nothing(self):
        config = EmConfig(neural=tiny_neural())
        pair, state = self._stated(config)
        eye = np.eye(8)
        state.model.ent_source = eye[:4].copy()
        # the seed pair stays aligned; every unlabeled target is
        # orthogonal to every source, so q = 0.5 sits at the floor
        state.model.ent_target = np.vstack([eye[0], eye[4:7]]).copy()
        m_step(state, config)
        assert len(state.psub) == 0

    def test_model_and_scores_untouched(self):
        config = EmConfig(neural=tiny_neural(), delta=0.9, rule_length=1)
        pair, state = self._stated(config)
        e_step(state, config)
        ent_before = state.model.ent_source.copy()
        scores_before = list(state.truth_scores.items())
        m_step(state, config)
        assert np.array_equal(state.model.ent_source, ent_before)
        assert list(state.truth_scores.items()) == scores_before


class TestRunEm:
    def test_history_per_iteration(self):
        pair = chain_fixture()
        config = EmConfig(iterations=3, rule_length=1, symbolic_only=True)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config)
        assert [s.iteration for s in state.history] == [1, 2, 3]
        assert all(s.neural_loss is None for s in state.history)

    def test_chain_converges_symbolically(self):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config)
        assert state.truth_scores.score(0, 0) > 0.9

    def test_validation_precision_reported(self):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        validation = AlignmentSeed(pairs=((0, 0),), role=SeedRole.VALIDATION)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config, validation=validation)
        assert state.history[-1].validation_precision == 1.0

    def test_callback_sees_each_round(self):
        pair = chain_fixture()
        config = EmConfig(iterations=3, rule_length=1, symbolic_only=True)
        seen = []
        run_em(pair, train_seed([(1, 1), (2, 2)]), config, callback=lambda s: seen.append(s.iteration))
        assert seen == [1, 2, 3]

    def test_same_seed_is_deterministic(self):
        pair, gold = isomorphic_pair(21, n_entities=30, n_relations=3, n_triples=80)
        train, _ = split_gold(gold, 0.3, seed=2)
        config = EmConfig(
            iterations=2, rule_length=2, seed=5, neural=tiny_neural(epochs=10)
        )
        a = run_em(pair, train, config)
        b = run_em(pair, train, config)
        assert [s.inferred_pairs for s in a.history] == [s.inferred_pairs for s in b.history]
        assert [s.neural_loss for s in a.history] == [s.neural_loss for s in b.history]
        fused_a = fuse_predictions(a, config)
        fused_b = fuse_predictions(b, config)
        assert fused_a.binary == fused_b.binary
        assert fused_a.rankings == fused_b.rankings

    def test_neural_loop_runs_end_to_end(self):
        pair, gold = isomorphic_pair(22, n_entities=30, n_relations=3, n_triples=80)
        train, _ = split_gold(gold, 0.3, seed=3)
        config = EmConfig(iterations=2, rule_length=2, neural=tiny_neural(epochs=10))
        state = run_em(pair, train, config)
        assert len(state.history) == 2
        assert all(s.neural_loss is not None for s in state.history)


class TestFusion:
    def test_requires_completed_round(self):
        pair = chain_fixture()
        config = EmConfig(symbolic_only=True)
        state = init_state(pair, train_seed([(2, 2)]), config)
        with pytest.raises(RuntimeError, match="completed round"):
            fuse_predictions(state, config)

    def test_observed_and_symbolic_pairs(self):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config)
        fused = fuse_predictions(state, config)
        by_pair = {(s, t): origin for s, t, _, origin in fused.binary}
        assert by_pair[(1, 1)] is Origin.OBSERVED
        assert by_pair[(2, 2)] is Origin.OBSERVED
        assert by_pair[(0, 0)] is Origin.SYMBOLIC

    def test_symbolic_rankings_without_model(self):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config)
        fused = fuse_predictions(state, config)
        assert fused.rankings[0][0] == 0

    def test_binary_counterpart_promoted_over_model_choice(self):
        pair = chain_fixture(4)
        config = EmConfig(neural=tiny_neural())
        state = init_state(pair, train_seed([(0, 0)]), config)
        eye = np.eye(8)
        state.model.ent_source = eye[:4].copy()
        # the model prefers target 2 for source 1, but the symbolic
        # engine called (1, 1); fusion must put 1 first regardless
        state.model.ent_target = np.vstack([eye[0], eye[5], eye[1], eye[6]]).copy()
        state.last_split = extract_positive_pairs(TruthScoreTable(rows={1: {1: 0.95}}), 0.9)
        fused = fuse_predictions(state, config)
        by_pair = {(s, t): origin for s, t, _, origin in fused.binary}
        assert by_pair[(1, 1)] is Origin.SYMBOLIC
        assert fused.rankings[1][:2] == [1, 2]

    def test_rank_sources_restrict_output(self):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config)
        fused = fuse_predictions(state, config, rank_sources=[0])
        assert set(fused.rankings) == {0}

    def test_binary_sorted_and_one_to_one(self):
        pair, gold = isomorphic_pair(23, n_entities=30, n_relations=3, n_triples=80)
        train, _ = split_gold(gold, 0.3, seed=4)
        config = EmConfig(iterations=2, rule_length=2, neural=tiny_neural(epochs=10))
        state = run_em(pair, train, config)
        fused = fuse_predictions(state, config)
        keys = [(s, t) for s, t, _, _ in fused.binary]
        assert keys == sorted(keys)
        sources = [s for s, _ in keys]
        targets = [t for _, t in keys]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)

    @staticmethod
    def _count_rank_calls(monkeypatch) -> list[int]:
        calls: list[int] = []
        real = em.emb.rank_candidates

        def counting(model, sources, candidates, depth):
            calls.append(len(sources))
            return real(model, sources, candidates, depth)

        monkeypatch.setattr(em.emb, "rank_candidates", counting)
        return calls

    def test_joint_fuse_ranks_in_one_call(self, monkeypatch):
        pair, gold = isomorphic_pair(23, n_entities=30, n_relations=3, n_triples=80)
        train, _ = split_gold(gold, 0.3, seed=4)
        config = EmConfig(iterations=1, rule_length=2, neural=tiny_neural(epochs=3))
        state = run_em(pair, train, config)
        calls = self._count_rank_calls(monkeypatch)
        fused = fuse_predictions(state, config)
        assert calls == [len(fused.rankings)]
        assert len(fused.rankings) > 1

    def test_model_less_fuse_never_ranks(self, monkeypatch):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        state = run_em(pair, train_seed([(1, 1), (2, 2)]), config)
        calls = self._count_rank_calls(monkeypatch)
        fused = fuse_predictions(state, config)
        assert calls == []
        assert fused.rankings


def _loop_sweep(pair, eta_source, eta_target, psub, prev):
    rows = oracles.loop_propagate(
        pair,
        eta_source.reverse_values,
        eta_target.reverse_values,
        *psub_dicts(psub),
        prev.rows,
    )
    return TruthScoreTable(rows=rows, pinned=prev.pinned)


def _loop_retain(table, rho=1.0):
    return TruthScoreTable(rows=oracles.loop_retain(table.rows, table.pinned, rho), pinned=table.pinned)


def _loop_extract(table, delta):
    positives, negatives = oracles.loop_extract(table.rows, table.pinned, delta)
    entries = sorted([(s, t, v, True) for s, t, v in positives] + [(s, t, v, False) for s, t, v in negatives])
    src, tgt, val = oracles.offer_columns([entry[:3] for entry in entries])
    return ThresholdSplit(src, tgt, val, np.array([entry[3] for entry in entries], dtype=bool))


def _loop_psub(pair, labels, **kwargs):
    return psub_table(pair.source, pair.target, *oracles.loop_subrelation(pair, labels.rows, **kwargs))


class TestLoopReferences:
    """A symbolic-only run on the array path equals the same run with every
    symbolic layer replaced by its dict-loop reference."""

    @staticmethod
    def _run(pair, train, config):
        state = run_em(pair, train, config)
        return state, fuse_predictions(state, config)

    @pytest.mark.parametrize("rho", [1.0, 0.8])
    @pytest.mark.parametrize("kind", ["isomorphic", "unrelated"])
    def test_symbolic_run_matches_loop_references(self, monkeypatch, kind, rho):
        if kind == "isomorphic":
            pair, gold = isomorphic_pair(31, n_entities=60, n_relations=4, n_triples=150)
        else:
            rng = np.random.default_rng(31)
            pair = random_pair(rng, n_entities=40, n_relations=3, n_triples=90)
            gold = {s: int(t) for s, t in enumerate(rng.permutation(40))}
        train, _ = split_gold(gold, 0.2, seed=5)
        config = EmConfig(iterations=2, rule_length=2, retention_rho=rho, delta=0.5, symbolic_only=True)
        arrays, fused_arrays = self._run(pair, train, config)

        monkeypatch.setattr(symbolic, "propagate_entity_scores", _loop_sweep)
        monkeypatch.setattr(symbolic, "retain_best", _loop_retain)
        monkeypatch.setattr(em, "retain_best", _loop_retain)
        monkeypatch.setattr(em, "extract_positive_pairs", _loop_extract)
        monkeypatch.setattr(em, "update_subrelation_probs", _loop_psub)
        loops, fused_loops = self._run(pair, train, config)

        assert len(arrays.truth_scores) > len(train)
        assert [(s, list(r.items())) for s, r in arrays.truth_scores.rows.items()] == [
            (s, list(r.items())) for s, r in loops.truth_scores.rows.items()
        ]
        assert np.array_equal(arrays.psub.source_in_target, loops.psub.source_in_target)
        assert np.array_equal(arrays.psub.target_in_source, loops.psub.target_in_source)
        assert oracles.column_tuples(arrays.last_split.positive_columns) == oracles.column_tuples(
            loops.last_split.positive_columns
        )
        assert fused_arrays.binary == fused_loops.binary
        assert fused_arrays.rankings == fused_loops.rankings

