"""Tests for the embedding model and its matching helpers."""

from __future__ import annotations

import numpy as np
import pytest

from kgalign import embedder
from kgalign.em import _top_candidates
from kgalign.embedder import (
    Hyperparams,
    Origin,
    PseudoLabelSet,
    TrainingError,
    greedy_one_to_one,
    init_model,
    load_model,
    rank_candidates,
    save_model,
    score_pair,
    train,
)
from kgalign.graph import KnowledgeGraph, KnowledgeGraphPair, load_graph

import oracles
from conftest import isomorphic_pair, random_graph, random_pair, split_gold


def tiny_pair() -> KnowledgeGraphPair:
    src = load_graph([("a", "r", "b")])
    tgt = load_graph([("x", "s", "y")])
    return KnowledgeGraphPair(source=src, target=tgt)


def labels(pairs, origin: Origin = Origin.OBSERVED) -> PseudoLabelSet:
    return PseudoLabelSet(*oracles.offer_columns(pairs), origin)


def observed(*pairs: tuple[int, int, float]) -> PseudoLabelSet:
    return labels(pairs)


def pool_array(pool) -> np.ndarray:
    """The (source, target) rows of (source, target, score) pool entries."""
    return np.array([(s, t) for s, t, _ in pool], dtype=np.int64).reshape(-1, 2)


def greedy_rows(offers, budget=None) -> list[tuple]:
    """The accepted offers as (s, t, score) rows, in acceptance order."""
    columns = oracles.offer_columns(offers)
    accepted = greedy_one_to_one(*columns, budget=budget)
    return oracles.column_tuples(col[accepted] for col in columns)


class TestHyperparams:
    def test_defaults_valid(self):
        Hyperparams().validate()

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="dimension"):
            Hyperparams(dim=1).validate()

    def test_negative_negatives(self):
        with pytest.raises(ValueError, match="negatives"):
            Hyperparams(negatives=-1).validate()

    def test_hard_fraction_range(self):
        with pytest.raises(ValueError, match="hard_negative_fraction"):
            Hyperparams(hard_negative_fraction=1.5).validate()


class TestPseudoLabelSet:
    def test_neural_must_be_one_to_one(self):
        with pytest.raises(ValueError, match="one-to-one"):
            labels([(0, 0, 1.0), (0, 1, 0.9)], Origin.NEURAL)
        with pytest.raises(ValueError, match="one-to-one"):
            labels([(0, 0, 1.0), (1, 0, 0.9)], Origin.NEURAL)
        assert len(labels([(0, 1, 1.0), (1, 0, 0.9)], Origin.NEURAL)) == 2

    def test_observed_duplicates_allowed(self):
        ls = observed((0, 0, 1.0), (0, 0, 1.0))
        assert len(ls) == 2

    def test_columns_typed_and_equal_length(self):
        ls = PseudoLabelSet([], [], [], Origin.SYMBOLIC)
        assert (ls.src.dtype, ls.tgt.dtype, ls.conf.dtype) == (np.int64, np.int64, np.float64)
        with pytest.raises(ValueError, match="equal lengths"):
            PseudoLabelSet([0, 1], [0], [1.0], Origin.OBSERVED)


class TestInitModel:
    def test_shapes(self, rng):
        pair = random_pair(rng, n_entities=6, n_relations=2, n_triples=10)
        model = init_model(pair, Hyperparams(dim=8), seed=3)
        assert model.ent_source.shape == (pair.source.n_entities, 8)
        assert model.ent_target.shape == (pair.target.n_entities, 8)
        assert model.rel_source.shape == (2 * pair.source.n_relations, 8)
        assert model.rel_target.shape == (2 * pair.target.n_relations, 8)

    def test_rows_unit_norm(self, rng):
        pair = random_pair(rng)
        model = init_model(pair, Hyperparams(dim=16), seed=0)
        for mat in (model.ent_source, model.ent_target, model.rel_source, model.rel_target):
            np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-12)

    def test_same_seed_identical(self, rng):
        pair = random_pair(rng)
        a = init_model(pair, Hyperparams(dim=8), seed=11)
        b = init_model(pair, Hyperparams(dim=8), seed=11)
        assert np.array_equal(a.ent_source, b.ent_source)
        assert np.array_equal(a.rel_target, b.rel_target)

    def test_different_seed_differs(self, rng):
        pair = random_pair(rng)
        a = init_model(pair, Hyperparams(dim=8), seed=1)
        b = init_model(pair, Hyperparams(dim=8), seed=2)
        assert not np.array_equal(a.ent_source, b.ent_source)


class TestTrain:
    def test_no_positives_raises(self):
        pair = tiny_pair()
        model = init_model(pair, Hyperparams(dim=4), seed=0)
        with pytest.raises(TrainingError, match="no positive"):
            train(model, pair, observed())

    def test_pool_of_triples_rejected(self):
        # (s, t, score) rows are not (s, t) rows; reading them as pairs
        # would train on wrong hard negatives
        pair = tiny_pair()
        model = init_model(pair, Hyperparams(dim=4), seed=0)
        before = model.ent_source.copy()
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            train(model, pair, observed((0, 0, 1.0)), negatives_pool=[(0, 1, 0.2), (1, 0, 0.3)])
        assert np.array_equal(model.ent_source, before)

    def test_zero_negatives_is_inert(self):
        pair = tiny_pair()
        hp = Hyperparams(dim=4, negatives=0, epochs=3)
        model = init_model(pair, hp, seed=0)
        before = model.ent_source.copy()
        report = train(model, pair, observed((0, 0, 1.0)))
        assert report.epoch_losses == [0.0, 0.0, 0.0]
        assert np.array_equal(model.ent_source, before)

    def test_loss_decreases_on_isomorphic_pair(self):
        pair, gold = isomorphic_pair(5, n_entities=20, n_relations=3, n_triples=60)
        train_seed, _ = split_gold(gold, 0.5, seed=1)
        hp = Hyperparams(dim=16, epochs=60, negatives=4)
        model = init_model(pair, hp, seed=2)
        positives = observed(*[(s, t, 1.0) for s, t in train_seed.pairs])
        report = train(model, pair, positives)
        assert report.final < report.epoch_losses[0]

    def test_trained_pairs_score_high(self):
        pair, gold = isomorphic_pair(9, n_entities=20, n_relations=3, n_triples=60)
        train_seed, _ = split_gold(gold, 0.5, seed=4)
        hp = Hyperparams(dim=16, epochs=80, negatives=4)
        model = init_model(pair, hp, seed=0)
        train(model, pair, observed(*[(s, t, 1.0) for s, t in train_seed.pairs]))
        targets = list(range(pair.target.n_entities))
        hits = sum(
            1 for s, t in train_seed.pairs if t in rank_candidates(model, [s], targets, 3)[0]
        )
        assert hits >= int(0.7 * len(train_seed.pairs))

    def test_unit_norms_preserved(self, rng):
        pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=16)
        hp = Hyperparams(dim=8, epochs=10, negatives=4)
        model = init_model(pair, hp, seed=1)
        train(model, pair, observed((0, 0, 1.0), (1, 1, 1.0)))
        for mat in (model.ent_source, model.ent_target, model.rel_source, model.rel_target):
            np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-6)

    def test_duplicate_equals_double_weight(self):
        # with a singleton hard pool the negative draws are constant, so
        # listing a pair twice must match weighting it twice exactly
        hp = Hyperparams(
            dim=4,
            negatives=2,
            epochs=1,
            hard_negative_fraction=1.0,
            triple_weight=0.0,
        )
        pair = tiny_pair()
        pool = np.array([(0, 1)])

        dup = init_model(pair, hp, seed=7)
        rep_dup = train(dup, pair, observed((0, 0, 1.0), (0, 0, 1.0)), negatives_pool=pool)

        wtd = init_model(pair, hp, seed=7)
        rep_wtd = train(
            wtd,
            pair,
            observed((0, 0, 1.0)),
            negatives_pool=pool,
            origin_weights={Origin.OBSERVED: 2.0},
        )

        assert np.array_equal(dup.ent_source, wtd.ent_source)
        assert np.array_equal(dup.ent_target, wtd.ent_target)
        # same loss mass; the mean divides by the term count, which
        # includes 4 directed triples next to the 2 vs 1 positives
        assert rep_dup.final * (2 + 4) == pytest.approx(rep_wtd.final * (1 + 4), rel=1e-12)

    def test_multiple_label_sets_concatenate(self):
        pair = tiny_pair()
        hp = Hyperparams(dim=4, negatives=2, epochs=1, hard_negative_fraction=0.0)
        a = init_model(pair, hp, seed=3)
        train(a, pair, [observed((0, 0, 1.0)), observed((1, 1, 1.0))])
        b = init_model(pair, hp, seed=3)
        train(b, pair, observed((0, 0, 1.0), (1, 1, 1.0)))
        assert np.array_equal(a.ent_source, b.ent_source)
        assert np.array_equal(a.ent_target, b.ent_target)


def assert_trains_like_reference(pair, hp, seed, positives, pool=(), origin_weights=None):
    """``train`` and the ``np.add.at`` reference, run from the same seed,
    agree bit for bit: weights, epoch losses and the next generator draw."""
    got, ref = init_model(pair, hp, seed), init_model(pair, hp, seed)
    rep_got = train(got, pair, positives, pool, origin_weights)
    rep_ref = oracles.loop_train(ref, pair, positives, pool, origin_weights)
    for name in ("ent_source", "ent_target", "rel_source", "rel_target"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert rep_got.epoch_losses == rep_ref.epoch_losses
    assert got.rng.integers(1 << 62) == ref.rng.integers(1 << 62)


def bare_graph(prefix: str, n_entities: int, triples=()) -> KnowledgeGraph:
    return KnowledgeGraph([f"{prefix}{i}" for i in range(n_entities)], ["r"], list(triples))


class TestTrainMatchesReference:
    """The sparse-product trainer against the loop trainer in ``oracles``."""

    def test_random_family(self, rng):
        mixed = 0
        for _ in range(60):
            pair = random_pair(
                rng,
                n_entities=int(rng.integers(2, 30)),
                n_relations=int(rng.integers(1, 4)),
                n_triples=int(rng.integers(0, 60)),
            )
            n_s, n_t = pair.source.n_entities, pair.target.n_entities
            hp = Hyperparams(
                dim=int(rng.integers(2, 9)),
                negatives=int(rng.integers(0, 6)),
                epochs=int(rng.integers(1, 5)),
                hard_negative_fraction=float(rng.choice([0.0, 0.5, 1.0])),
                triple_weight=float(rng.choice([0.0, 0.25, 1.0])),
            )
            pairs = [
                (int(rng.integers(n_s)), int(rng.integers(n_t)), float(rng.choice([1.0, 0.5, 0.0])))
                for _ in range(int(rng.integers(1, 12)))
            ]
            pairs += pairs[: int(rng.integers(0, 3))]  # duplicate positives
            pooled = rng.choice(n_s, size=int(rng.integers(0, n_s + 1)), replace=False)
            pool = [
                (int(s), int(rng.integers(n_t)), 0.1)
                for s in pooled
                for _ in range(int(rng.integers(1, 6)))
            ]
            has_pool = {s for s, _, _ in pool}
            mixed += len({s in has_pool for s, _, _ in pairs}) == 2
            cut = int(rng.integers(0, len(pairs) + 1))
            sets = [labels(pairs[:cut], Origin.OBSERVED), labels(pairs[cut:], Origin.SYMBOLIC)]
            weights = {Origin.SYMBOLIC: float(rng.choice([1.0, 0.7]))}
            assert_trains_like_reference(pair, hp, int(rng.integers(1 << 30)), sets, pool_array(pool), weights)
        assert mixed > 20  # positives with and without a pool in one call

    @pytest.mark.parametrize("empty_side", ["source", "target"])
    def test_one_graph_without_triples(self, rng, empty_side):
        full = random_graph(rng, 12, 2, 30)
        empty = bare_graph("x", 12)
        pair = (
            KnowledgeGraphPair(source=empty, target=full)
            if empty_side == "source"
            else KnowledgeGraphPair(source=full, target=empty)
        )
        hp = Hyperparams(dim=6, negatives=3, epochs=3, triple_weight=0.5)
        pool = np.array([(0, 5), (0, 7), (3, 2)])
        assert_trains_like_reference(pair, hp, 5, observed((0, 1, 1.0), (2, 2, 0.8), (3, 4, 1.0)), pool)

    def test_pools_of_one_to_three_thousand(self, rng):
        n_t = 3000
        pair = KnowledgeGraphPair(
            source=random_graph(rng, 12, 2, 20), target=bare_graph("b", n_t, [(0, 0, 1), (1, 0, 2)])
        )
        pool, pairs = [], []
        for s, size in enumerate([1, 2, 3, 17, 255, 256, 257, 1000, 2999, 3000]):
            for t in rng.choice(n_t, size=size, replace=False):
                pool.append((s, int(t), 0.1))
            pool.append(pool[-1])  # a repeated pool entry counts once
            pairs.append((s, int(rng.integers(n_t)), 1.0))
        pairs.append((11, 0, 1.0))  # no pool
        for fraction in (0.5, 1.0):
            hp = Hyperparams(dim=2, negatives=5, epochs=3, hard_negative_fraction=fraction, triple_weight=0.25)
            assert_trains_like_reference(pair, hp, 9, observed(*pairs), pool_array(pool))

    def test_one_call_draws_like_choice_loop(self, rng):
        # the identity the trainer's sampler rests on
        for _ in range(100):
            lens = rng.integers(1, 3001, size=int(rng.integers(1, 6)))
            n_hard = int(rng.integers(1, 5))
            seed = int(rng.integers(1 << 30))
            loop, one = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [loop.choice(np.arange(n), size=n_hard) for n in lens]
            got = one.integers(0, np.repeat(lens, n_hard)).reshape(-1, n_hard)
            assert np.array_equal(np.array(want), got)
            assert loop.integers(1 << 62) == one.integers(1 << 62)


class TestScoring:
    def _model_with_rows(self, rows: dict[int, list[float]], n_targets: int = 10):
        rng = np.random.default_rng(0)
        pair = random_pair(rng, n_entities=n_targets, n_relations=2, n_triples=12)
        model = init_model(pair, Hyperparams(dim=2), seed=0)
        model.ent_source[0] = np.array([1.0, 0.0])
        for t, vec in rows.items():
            model.ent_target[t] = np.array(vec)
        return model

    def test_identical_vectors(self):
        model = self._model_with_rows({0: [1.0, 0.0]})
        assert score_pair(model, 0, 0) == 1.0

    def test_orthogonal_vectors(self):
        model = self._model_with_rows({0: [0.0, 1.0]})
        assert score_pair(model, 0, 0) == 0.0

    def test_opposite_vectors(self):
        model = self._model_with_rows({0: [-1.0, 0.0]})
        assert score_pair(model, 0, 0) == -1.0

    def test_top_candidates_scores_match_score_pair(self, rng):
        pair = random_pair(rng, n_entities=12, n_relations=2, n_triples=20)
        model = init_model(pair, Hyperparams(dim=8), seed=5)
        model.ent_target[3] *= 2.5  # scoring must not assume unit rows
        got = oracles.column_tuples(_top_candidates(model, [0, 4, 7], list(range(12)), top_c=5))
        assert len(got) == 15
        for s, t, v in got:
            assert abs(v - score_pair(model, s, t)) <= 1e-12

    def test_rank_by_score(self):
        model = self._model_with_rows({2: [0.9, np.sqrt(1 - 0.81)], 5: [0.1, np.sqrt(1 - 0.01)]})
        assert rank_candidates(model, [0], [5, 2], 2)[0] == [2, 5]

    def test_rank_tie_by_id(self):
        v = [0.6, 0.8]
        model = self._model_with_rows({3: v, 7: v})
        assert rank_candidates(model, [0], [7, 3], 2)[0] == [3, 7]

    def test_rank_singleton(self):
        model = self._model_with_rows({4: [1.0, 0.0]})
        assert rank_candidates(model, [0], [4], 1)[0] == [4]

    def test_rank_empty_rejected(self):
        model = self._model_with_rows({})
        with pytest.raises(ValueError, match="non-empty"):
            rank_candidates(model, [0], [], 1)

    def test_rank_permutation_invariant(self, rng):
        pair = random_pair(rng, n_entities=12, n_relations=2, n_triples=20)
        model = init_model(pair, Hyperparams(dim=8), seed=5)
        cands = list(range(12))
        base = rank_candidates(model, [3], cands, 12)[0]
        for _ in range(10):
            shuffled = [cands[i] for i in rng.permutation(len(cands))]
            assert rank_candidates(model, [3], shuffled, 12)[0] == base


def tied_model(rng, n_entities: int, dim: int = 4):
    """A random model whose target rows repeat in groups, with some source
    rows copying a repeated target row, so that exact score ties sit at
    the top of those rows and straddle small cuts."""
    pair = random_pair(rng, n_entities=n_entities, n_relations=2, n_triples=2 * n_entities)
    model = init_model(pair, Hyperparams(dim=dim), seed=int(rng.integers(1 << 30)))
    n_t = model.ent_target.shape[0]
    for _ in range(int(rng.integers(1, 4))):
        group = rng.choice(n_t, size=int(rng.integers(2, min(6, n_t) + 1)), replace=False)
        model.ent_target[group] = model.ent_target[group[0]]
        n_copy = int(rng.integers(0, model.ent_source.shape[0] // 2 + 1))
        for s in rng.choice(model.ent_source.shape[0], size=n_copy, replace=False):
            model.ent_source[s] = 3.0 * model.ent_target[group[0]]
    return model


class TestTopK:
    """Batched ranking and m-step candidates against exact references."""

    def _check_against_loop(self, rng, model) -> int:
        """Rank a random subset of sources over a shuffled subset of targets
        at a depth up to two past the candidate count; returns how many
        rows cut through a group of tied targets."""
        n_s, n_t = model.ent_source.shape[0], model.ent_target.shape[0]
        sources = [int(s) for s in rng.permutation(n_s)[: int(rng.integers(1, n_s + 1))]]
        cands = [int(t) for t in rng.permutation(n_t)[: int(rng.integers(1, n_t + 1))]]
        depth = int(rng.integers(1, len(cands) + 3))
        got = rank_candidates(model, sources, cands, depth)
        assert len(got) == len(sources)
        straddled = 0
        for s, ranked in zip(sources, got):
            full = oracles.loop_rank(model, s, cands)
            assert ranked == full[:depth]
            last = model.ent_target[full[min(depth, len(full)) - 1]]
            dropped = full[depth:]
            straddled += any(np.array_equal(model.ent_target[t], last) for t in dropped)
        return straddled

    def test_matches_loop_reference(self, rng):
        straddled = 0
        for _ in range(200):
            model = tied_model(rng, int(rng.integers(2, 25)))
            straddled += self._check_against_loop(rng, model)
        assert straddled > 20  # exact ties did fall across the cut

    def test_matches_loop_reference_one_row_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(embedder, "TOP_K_BLOCK_CELLS", 1)
        for _ in range(100):
            self._check_against_loop(rng, tied_model(rng, int(rng.integers(2, 15))))

    def test_depth_beyond_candidates(self, rng):
        model = tied_model(rng, 10)
        cands = [9, 1, 4, 4, 0, 7]
        got = rank_candidates(model, [0, 1, 2], cands, 50)
        for s, ranked in zip([0, 1, 2], got):
            assert ranked == oracles.loop_rank(model, s, cands)
            assert sorted(ranked) == sorted(cands)

    def test_empty_sources(self, rng):
        model = tied_model(rng, 6)
        assert rank_candidates(model, [], [0, 1], 3) == []

    def test_top_candidates_match_lexsort_reference(self, rng):
        for _ in range(300):
            model = tied_model(rng, int(rng.integers(2, 20)))
            n_s, n_t = model.ent_source.shape[0], model.ent_target.shape[0]
            sources = [int(s) for s in rng.permutation(n_s)[: int(rng.integers(1, n_s + 1))]]
            targets = sorted(int(t) for t in rng.permutation(n_t)[: int(rng.integers(1, n_t + 1))])
            top_c = int(rng.integers(1, n_t + 1))
            got = oracles.column_tuples(_top_candidates(model, sources, targets, top_c))

            tgt = np.asarray(targets)
            smat, tmat = model.ent_source[sources], model.ent_target[tgt]
            smat = smat / np.linalg.norm(smat, axis=1, keepdims=True)
            tmat = tmat / np.linalg.norm(tmat, axis=1, keepdims=True)
            scores = np.clip(smat @ tmat.T, -1.0, 1.0)
            want = []
            for i, s in enumerate(sources):
                for j in np.lexsort((tgt, -scores[i]))[:top_c]:
                    want.append((s, int(tgt[j]), float(scores[i, j])))
            assert got == want


class TestGreedyMatching:
    def test_second_best_displaced(self):
        got = greedy_rows([(0, 0, 0.9), (0, 1, 0.8), (1, 1, 0.7)])
        assert [(s, t) for s, t, _ in got] == [(0, 0), (1, 1)]

    def test_loser_shares_target(self):
        got = greedy_rows([(0, 0, 0.9), (1, 0, 0.8)])
        assert [(s, t) for s, t, _ in got] == [(0, 0)]

    def test_empty(self):
        assert greedy_rows([]) == []

    def test_budget(self):
        got = greedy_one_to_one(*oracles.offer_columns([(0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.7)]), budget=2)
        assert len(got) == 2

    def test_tie_broken_by_ids(self):
        got = greedy_rows([(1, 1, 0.5), (0, 0, 0.5), (0, 1, 0.5)])
        assert [(s, t) for s, t, _ in got] == [(0, 0), (1, 1)]

    def test_positions_index_the_offers(self):
        # equal offers resolve to the earliest position; a re-scored
        # duplicate is accepted at its own position
        offers = [(1, 1, 0.5), (0, 0, 0.5), (0, 0, 0.5), (0, 0, 0.9), (1, 1, 0.5)]
        got = greedy_one_to_one(*oracles.offer_columns(offers))
        assert got.dtype == np.int64 and got.tolist() == [3, 0]
        assert greedy_one_to_one(*oracles.offer_columns(offers[:3])).tolist() == [1, 0]
        assert greedy_one_to_one(*oracles.offer_columns(offers), budget=1).tolist() == [3]

    def test_matching_valid_and_greedy(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scored = [
                (int(rng.integers(8)), int(rng.integers(8)), float(rng.uniform()))
                for _ in range(n)
            ]
            got = greedy_rows(scored)
            sources = [s for s, _, _ in got]
            targets = [t for _, t, _ in got]
            assert len(set(sources)) == len(sources)
            assert len(set(targets)) == len(targets)
            # every rejected pair lost an endpoint to a no-later accepted pair
            accepted = set((s, t) for s, t, _ in got)
            for s, t, v in scored:
                if (s, t) in accepted:
                    continue
                assert any(
                    (s2 == s or t2 == t) and (-v2, s2, t2) <= (-v, s, t)
                    for s2, t2, v2 in got
                )

    def test_matches_sorted_reference(self, rng):
        # scores from a small set plant exact ties; repeated and
        # re-scored offers and budgets cut the sweep short
        for _ in range(300):
            offers = [
                (int(rng.integers(8)), int(rng.integers(8)), float(rng.choice([0.25, 0.5, 0.75, 0.0])))
                for _ in range(int(rng.integers(0, 40)))
            ]
            offers += [offers[int(i)] for i in rng.integers(0, len(offers), size=min(len(offers), 5))]
            offers += [(s, t, 1.0 - v) for s, t, v in offers[:3]]
            budget = None if rng.random() < 0.3 else int(rng.integers(0, 10))
            assert greedy_rows(offers, budget=budget) == oracles.sorted_greedy(offers, budget=budget)

    def test_edge_cases_match_sorted_reference(self):
        duplicated = [(0, 0, 0.5), (0, 0, 0.5), (1, 0, 0.5), (0, 0, 0.9), (1, 1, 0.5), (1, 1, 0.5)]
        for offers in ([], duplicated):
            for budget in (None, 0, 1, 5):
                assert greedy_rows(offers, budget=budget) == oracles.sorted_greedy(offers, budget=budget)
        assert greedy_rows(duplicated, budget=0) == []
        assert greedy_rows(duplicated) == [(0, 0, 0.9), (1, 1, 0.5)]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=14)
        hp = Hyperparams(dim=8, epochs=5, negatives=4)
        model = init_model(pair, hp, seed=9)
        train(model, pair, observed((0, 0, 1.0), (2, 2, 1.0)))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.ent_source, loaded.ent_source)
        assert np.array_equal(model.ent_target, loaded.ent_target)
        assert np.array_equal(model.rel_source, loaded.rel_source)
        assert np.array_equal(model.rel_target, loaded.rel_target)
        assert loaded.hyperparams == hp
        assert loaded.seed == 9

    def test_rng_state_restored(self, tmp_path):
        rng = np.random.default_rng(2)
        pair = random_pair(rng, n_entities=8, n_relations=2, n_triples=14)
        hp = Hyperparams(dim=8, epochs=2, negatives=4)
        model = init_model(pair, hp, seed=4)
        train(model, pair, observed((0, 0, 1.0)))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        rep_a = train(model, pair, observed((0, 0, 1.0)))
        rep_b = train(loaded, pair, observed((0, 0, 1.0)))
        assert rep_a.epoch_losses == rep_b.epoch_losses
        assert np.array_equal(model.ent_source, loaded.ent_source)

    def test_version_gate(self, tmp_path):
        rng = np.random.default_rng(3)
        pair = random_pair(rng)
        model = init_model(pair, Hyperparams(dim=4), seed=0)
        path = tmp_path / "model.npz"
        save_model(model, path)
        import json

        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        meta["version"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_model(path)
