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
from kgalign import embedder as emb
from kgalign.embedder import Hyperparams, Origin, TrainReport
from kgalign.graph import AlignmentSeed, KnowledgeGraphPair, load_graph
from kgalign import symbolic
from kgalign.symbolic import ThresholdSplit, extract_positive_pairs

import oracles
from conftest import isomorphic_pair, matched_psub, psub_dicts, psub_table, random_pair, split_gold


def chain_fixture(n: int = 3):
    """Matched chains s0 -> ... -> s(n-1) and the primed copy."""
    src = load_graph([(f"s{i}", "r", f"s{i + 1}") for i in range(n - 1)])
    tgt = load_graph([(f"t{i}", "r'", f"t{i + 1}") for i in range(n - 1)])
    return KnowledgeGraphPair(source=src, target=tgt)


def train_seed(pairs) -> AlignmentSeed:
    return AlignmentSeed(pairs=tuple(sorted(pairs)))


def label_rows(labels) -> list[tuple]:
    return oracles.column_tuples((labels.src, labels.tgt, labels.conf))


def tiny_neural(**overrides) -> Hyperparams:
    base = dict(dim=8, epochs=5)
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            EmConfig(seed=-1).validate()


class TestInitState:
    def test_seeds_pinned(self):
        pair = chain_fixture()
        state = init_state(pair, train_seed([(2, 2)]), EmConfig(symbolic_only=True))
        assert oracles.table_rows(state.truth_scores) == {2: {2: 1.0}}
        assert oracles.pinned_pairs(state.truth_scores) == {(2, 2)}

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

    def test_observed_labels_in_seed_order(self):
        seed = AlignmentSeed(pairs=((2, 2), (0, 1)))
        state = init_state(chain_fixture(), seed, EmConfig(symbolic_only=True))
        assert label_rows(state.observed) == [(2, 2, 1.0), (0, 1, 1.0)]
        assert state.observed.origin is Origin.OBSERVED

    @pytest.mark.parametrize("symbolic_only", [True, False])
    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((0, 0), (0, 1)), "train seed set is not one-to-one"),
            (((0, 1), (1, 1)), "train seed set is not one-to-one"),
            (((-1, 0),), "seed source id -1 is not one of the 3 source entities"),
            (((0, -2),), "seed target id -2 is not one of the 3 target entities"),
            (((3, 0),), "seed source id 3 is not one of the 3 source entities"),
            (((1, 1), (2, 7)), "seed target id 7 is not one of the 3 target entities"),
        ],
    )
    def test_bad_seeds_rejected(self, pairs, message, symbolic_only):
        config = EmConfig(symbolic_only=symbolic_only, neural=tiny_neural())
        with pytest.raises(ValueError, match=f"^{message}$"):
            init_state(chain_fixture(), AlignmentSeed(pairs=pairs), config)


class TestEStep:
    def test_chain_infers_next_pair(self):
        pair = chain_fixture()
        config = EmConfig(delta=0.9, rule_length=1, symbolic_only=True)
        state = init_state(pair, train_seed([(2, 2)]), config)
        state.psub = matched_psub(pair.source, pair.target, {0: 0})
        e_step(state, config)
        assert oracles.split_rows(state.last_split) == [(1, 1, 1.0)]

    def test_training_set_is_seeds_plus_inferred(self, monkeypatch):
        pair = chain_fixture()
        config = EmConfig(delta=0.9, rule_length=1, hidden_weight=0.5, neural=tiny_neural())
        state = init_state(pair, train_seed([(2, 2)]), config)
        state.psub = matched_psub(pair.source, pair.target, {0: 0})
        captured = {}

        def fake_train(*args, **kwargs):
            captured["args"], captured["kwargs"] = args, kwargs
            return TrainReport(epoch_losses=[0.0])

        monkeypatch.setattr(em.emb, "train", fake_train)
        e_step(state, config)
        # the label sets are the third positional argument, nothing else is passed
        model, pair_, (observed, symbolic) = captured["args"]
        assert captured["kwargs"] == {}
        assert observed.origin is Origin.OBSERVED
        assert label_rows(observed) == [(2, 2, 1.0)]
        assert symbolic.origin is Origin.SYMBOLIC
        split = state.last_split
        assert oracles.split_rows(split) == [(1, 1, 1.0)]
        assert label_rows(symbolic) == [(1, 1, 0.5)]
        assert np.array_equal(symbolic.conf, config.hidden_weight * split.val)

    def test_below_threshold_is_no_label(self, monkeypatch):
        # the chain's true counterpart scores 0.96, under delta = 0.97
        pair = chain_fixture()
        config = EmConfig(delta=0.97, rule_length=1, neural=tiny_neural())
        state = init_state(pair, train_seed([(2, 2)]), config)
        state.psub = matched_psub(pair.source, pair.target, {0: 0}, value=0.8)
        captured = {}

        def fake_train(model, pair_, positives):
            captured["sets"] = positives
            return TrainReport(epoch_losses=[0.0])

        monkeypatch.setattr(em.emb, "train", fake_train)
        e_step(state, config)
        assert oracles.table_rows(state.truth_scores)[1][1] == pytest.approx(0.96, abs=1e-12)
        _, symbolic = captured["sets"]
        assert label_rows(symbolic) == []
        assert oracles.split_rows(state.last_split) == []

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


def _random_m_state(rng, neural: bool, kind: str):
    """An EmState after a made-up E-step: random graphs, seeds, and
    random features with one zero source row.

    ``kind`` "random": a truth table whose rows mix random pairs with
    each source's best target by cosine, split at 0.5.  "none": that
    table and no split.  "empty": a seeds-only table and a split without
    entries.
    """
    pair = random_pair(rng, n_entities=14, n_relations=3, n_triples=40)
    n_s, n_t = pair.source.n_entities, pair.target.n_entities
    seeds = list(zip(rng.permutation(n_s)[:3].tolist(), rng.permutation(n_t)[:3].tolist()))
    config = EmConfig(symbolic_only=not neural, neural=tiny_neural())
    state = init_state(pair, train_seed(seeds), config)
    rows: dict[int, dict[int, float]] = {s: {t: 1.0} for s, t in seeds}
    if neural:
        state.model.ent_source = rng.normal(size=state.model.ent_source.shape)
        state.model.ent_target = rng.normal(size=state.model.ent_target.shape)
        state.model.ent_source[int(rng.integers(n_s))] = 0.0
    if kind == "empty":
        state.last_split = ThresholdSplit(*em._no_pairs())
    else:
        for _ in range(int(rng.integers(0, 30))):
            rows.setdefault(int(rng.integers(n_s)), {})[int(rng.integers(n_t))] = float(rng.random())
        if neural:
            ids, _ = emb.top_k(state.model, range(n_s), range(n_t), 1)
            for s in rng.permutation(n_s)[: n_s // 3].tolist():
                rows.setdefault(s, {})[int(ids[s, 0])] = float(rng.random())
    state.truth_scores = oracles.table_from_rows(rows, seeds)
    if kind == "random":
        state.last_split = extract_positive_pairs(state.truth_scores, 0.5)
    return state, config


def _m_step_labels(monkeypatch, state, config) -> list[tuple]:
    """Run ``m_step``; return the (s, t, conf) rows it hands the p_sub update."""
    captured = []
    real = em.update_subrelation_probs

    def recording(pair, src, tgt, val):
        captured.extend(oracles.column_tuples((src, tgt, val)))
        return real(pair, src, tgt, val)

    monkeypatch.setattr(em, "update_subrelation_probs", recording)
    m_step(state, config)
    monkeypatch.undo()
    return captured


class TestMStepMatchesLoop:
    """The M-step equals its loop reference: the same labels, in the same
    order, reach the p_sub update, and p_sub is bit-identical."""

    @pytest.mark.parametrize("kind", ["none", "empty", "random"])
    @pytest.mark.parametrize("neural", [True, False])
    def test_matches_loop_reference(self, monkeypatch, neural, kind):
        rng = np.random.default_rng(41 + 2 * neural)
        inferred = 0
        for _ in range(25):
            state, config = _random_m_state(rng, neural, kind)
            want = oracles.loop_m_step(state, config)
            want_psub = state.psub.source_in_target.copy(), state.psub.target_in_source.copy()
            got = _m_step_labels(monkeypatch, state, config)
            assert got == want
            assert np.array_equal(want_psub[0], state.psub.source_in_target)
            assert np.array_equal(want_psub[1], state.psub.target_in_source)
            inferred += len(got) - len(state.observed)
        assert inferred > 0 or (kind != "random" and not neural)

    def test_labels_avoid_observed_entities(self, monkeypatch):
        # Rows of seed sources and columns of seed targets carry
        # non-pinned positives; in symbolic-only mode too, none of them
        # may become a label next to the seed pair, which is pinned at 1.
        rng = np.random.default_rng(7)
        touching = 0
        for _ in range(25):
            state, config = _random_m_state(rng, False, "random")
            observed = set(zip(state.observed.src.tolist(), state.observed.tgt.tolist()))
            obs_src = {s for s, _ in observed}
            obs_tgt = {t for _, t in observed}
            positives = oracles.split_rows(state.last_split)
            touching += sum(s in obs_src or t in obs_tgt for s, t, _ in positives)
            for s, t, _ in _m_step_labels(monkeypatch, state, config):
                if (s, t) not in observed:
                    assert s not in obs_src and t not in obs_tgt, (s, t)
        assert touching > 0


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
        assert oracles.table_rows(state.truth_scores)[0][0] > 0.9

    def test_validation_precision_reported(self):
        pair = chain_fixture()
        config = EmConfig(iterations=2, rule_length=2, symbolic_only=True)
        validation = AlignmentSeed(pairs=((0, 0),))
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
        state.last_split = extract_positive_pairs(oracles.table_from_rows({1: {1: 0.95}}), 0.9)
        m_step(state, config)
        fused = fuse_predictions(state, config)
        by_pair = {(s, t): origin for s, t, _, origin in fused.binary}
        assert by_pair[(1, 1)] is Origin.SYMBOLIC
        assert fused.rankings[1][:2] == [1, 2]

    def test_truth_row_ranked_before_model_fill(self):
        pair = chain_fixture(6)
        config = EmConfig(neural=tiny_neural(), rank_depth=4)
        state = init_state(pair, train_seed([(0, 0)]), config)
        eye = np.eye(8)
        # source 1 leans to target 4 (cos 0.6), then 2 (cos 0.3), but
        # target 4 prefers source 5 (cos 0.8), so source 1 has no mutual
        # nearest neighbour; source 5 takes target 1 (cos 1)
        state.model.ent_source = np.vstack([eye[:5], eye[6]])
        state.model.ent_target = np.vstack(
            [eye[0], eye[6], 0.3 * eye[1] + 0.91**0.5 * eye[7], eye[7], 0.6 * eye[1] + 0.8 * eye[6], eye[6]]
        )
        # below delta: a truth row, but no symbolic match
        state.truth_scores = oracles.table_from_rows({0: {0: 1.0}, 1: {3: 0.7, 2: 0.5}}, [(0, 0)])
        state.last_split = extract_positive_pairs(state.truth_scores, config.delta)
        m_step(state, config)
        fused = fuse_predictions(state, config)
        assert 1 not in {s for s, _, _, _ in fused.binary}
        assert [(s, t) for s, t, _, o in fused.binary if o is Origin.NEURAL] == [(5, 1)]
        assert emb.rank_candidates(state.model, [1], range(1, 6), 5) == [[4, 2, 1, 3, 5]]
        # truth row first (3, 2), then the embedder's fill without the repeat of 2
        assert fused.rankings[1] == [3, 2, 4, 1]
        for ranked in fused.rankings.values():
            assert len(ranked) == config.rank_depth
            assert len(set(ranked)) == len(ranked)
            assert 0 not in ranked

    def test_tied_truth_scores_rank_by_target(self):
        pair = chain_fixture(6)
        config = EmConfig(symbolic_only=True, rank_depth=4)
        state = init_state(pair, train_seed([(0, 0)]), config)
        # below delta, ties at 0.6 listed by descending target around a 0.7
        state.truth_scores = oracles.table_from_rows({1: {5: 0.6, 4: 0.7, 3: 0.6, 2: 0.6}}, [(0, 0)])
        state.last_split = extract_positive_pairs(state.truth_scores, config.delta)
        m_step(state, config)
        fused = fuse_predictions(state, config, rank_sources=[1])
        assert fused.rankings == {1: [4, 2, 3, 5]}

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

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_one_alignment_per_round(self, monkeypatch, iterations):
        pair, gold = isomorphic_pair(23, n_entities=30, n_relations=3, n_triples=80)
        train, _ = split_gold(gold, 0.3, seed=4)
        config = EmConfig(iterations=iterations, rule_length=2, neural=tiny_neural(epochs=3))
        calls = []
        real = em._top_candidates

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(em, "_top_candidates", counting)
        state = run_em(pair, train, config)
        fused = fuse_predictions(state, config)
        assert len(calls) == iterations
        assert fused.binary

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
        eta_source,
        eta_target,
        *psub_dicts(psub),
        oracles.table_rows(prev),
    )
    return oracles.table_from_rows(rows, oracles.pinned_pairs(prev))


def _loop_retain(table, rho=1.0):
    pinned = oracles.pinned_pairs(table)
    return oracles.table_from_rows(oracles.loop_retain(oracles.table_rows(table), pinned, rho), pinned)


def _loop_extract(table, delta):
    positives = oracles.loop_extract(oracles.table_rows(table), oracles.pinned_pairs(table), delta)
    return ThresholdSplit(*oracles.offer_columns(positives))


def _loop_psub(pair, src, tgt, val):
    rows: dict[int, dict[int, float]] = {}
    for s, t, v in oracles.column_tuples((src, tgt, val)):
        rows.setdefault(s, {})[t] = v
    psub = oracles.loop_subrelation(
        pair, rows, eps=symbolic.PSUB_EPSILON, min_support=symbolic.PSUB_MIN_SUPPORT
    )
    return psub_table(pair.source, pair.target, *psub)


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
        assert [(s, list(r.items())) for s, r in oracles.table_rows(arrays.truth_scores).items()] == [
            (s, list(r.items())) for s, r in oracles.table_rows(loops.truth_scores).items()
        ]
        assert np.array_equal(arrays.psub.source_in_target, loops.psub.source_in_target)
        assert np.array_equal(arrays.psub.target_in_source, loops.psub.target_in_source)
        assert oracles.split_rows(arrays.last_split) == oracles.split_rows(loops.last_split)
        assert fused_arrays.binary == fused_loops.binary
        assert fused_arrays.rankings == fused_loops.rankings

