"""Tests for the embedding model and its matching helpers."""

from __future__ import annotations

import threading
import tracemalloc

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
    rank_candidates,
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


def greedy_rows(offers) -> list[tuple]:
    """The accepted offers as (s, t, score) rows, in acceptance order."""
    columns = oracles.offer_columns(offers)
    accepted = greedy_one_to_one(*columns)
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
        # the target graph has two entities, so every uniform negative of
        # the pair (0, 0) is nudged off its counterpart onto entity 1 and
        # the draws cannot differ; listing a pair twice must then match
        # giving it confidence 2 exactly
        hp = Hyperparams(dim=4, negatives=2, epochs=1, triple_weight=0.0)
        pair = tiny_pair()
        assert pair.target.n_entities == 2

        dup = init_model(pair, hp, seed=7)
        rep_dup = train(dup, pair, observed((0, 0, 1.0), (0, 0, 1.0)))

        wtd = init_model(pair, hp, seed=7)
        rep_wtd = train(wtd, pair, observed((0, 0, 2.0)))

        assert np.array_equal(dup.ent_source, wtd.ent_source)
        assert np.array_equal(dup.ent_target, wtd.ent_target)
        # same loss mass; the mean divides by the term count, which
        # includes 4 directed triples next to the 2 vs 1 positives
        assert rep_dup.final * (2 + 4) == pytest.approx(rep_wtd.final * (1 + 4), rel=1e-12)

    def test_multiple_label_sets_concatenate(self):
        pair = tiny_pair()
        hp = Hyperparams(dim=4, negatives=2, epochs=1)
        a = init_model(pair, hp, seed=3)
        train(a, pair, [observed((0, 0, 1.0)), observed((1, 1, 1.0))])
        b = init_model(pair, hp, seed=3)
        train(b, pair, observed((0, 0, 1.0), (1, 1, 1.0)))
        assert np.array_equal(a.ent_source, b.ent_source)
        assert np.array_equal(a.ent_target, b.ent_target)


def assert_trains_like_reference(pair, hp, seed, positives):
    """``train`` and the ``np.add.at`` reference, run from the same seed,
    agree bit for bit: weights, epoch losses and the next generator draw."""
    got, ref = init_model(pair, hp, seed), init_model(pair, hp, seed)
    rep_got = train(got, pair, positives)
    rep_ref = oracles.loop_train(ref, pair, positives)
    for name in ("ent_source", "ent_target", "rel_source", "rel_target"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert rep_got.epoch_losses == rep_ref.epoch_losses
    assert got.rng.integers(1 << 62) == ref.rng.integers(1 << 62)


def bare_graph(prefix: str, n_entities: int, triples=()) -> KnowledgeGraph:
    return KnowledgeGraph([f"{prefix}{i}" for i in range(n_entities)], ["r"], list(triples))


class TestTrainMatchesReference:
    """The sparse-product trainer against the loop trainer in ``oracles``."""

    def test_random_family(self, rng):
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
                triple_weight=float(rng.choice([0.0, 0.25, 1.0])),
            )
            pairs = [
                (int(rng.integers(n_s)), int(rng.integers(n_t)), float(rng.choice([1.0, 0.5, 0.0])))
                for _ in range(int(rng.integers(1, 12)))
            ]
            pairs += pairs[: int(rng.integers(0, 3))]  # duplicate positives
            cut = int(rng.integers(0, len(pairs) + 1))
            # weighted labels, as the E-step hands over hidden_weight * score
            scale = float(rng.choice([1.0, 0.7]))
            inferred = [(s, t, scale * v) for s, t, v in pairs[cut:]]
            sets = [labels(pairs[:cut], Origin.OBSERVED), labels(inferred, Origin.SYMBOLIC)]
            assert_trains_like_reference(pair, hp, int(rng.integers(1 << 30)), sets)

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
        assert_trains_like_reference(pair, hp, 5, observed((0, 1, 1.0), (2, 2, 0.8), (3, 4, 1.0)))


class TestTrainChunks:
    """The trainer walks the corrupted residuals in chunks of triples; sums
    carried across chunk boundaries must still match the reference."""

    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_matches_loop_reference_across_chunks(self, rng, monkeypatch, per_chunk):
        crossed = ragged = 0
        for case in range(40):
            pair = random_pair(
                rng,
                n_entities=int(rng.integers(2, 30)),
                n_relations=int(rng.integers(1, 4)),
                n_triples=int(rng.integers(0, 60)),
            )
            if case % 8 == 0:
                pair = KnowledgeGraphPair(source=pair.source, target=bare_graph("x", pair.target.n_entities))
            n_s, n_t = pair.source.n_entities, pair.target.n_entities
            hp = Hyperparams(
                dim=int(rng.integers(2, 9)),
                negatives=0 if case % 10 == 1 else int(rng.integers(1, 6)),
                epochs=int(rng.integers(1, 4)),
                triple_weight=0.0 if case % 10 == 2 else float(rng.choice([0.25, 1.0])),
            )
            monkeypatch.setattr(embedder, "TRAIN_CHUNK_CELLS", per_chunk * hp.negatives * hp.dim)
            n2 = 2 * len(pair.source.triple_columns[0])
            chunked = hp.negatives > 0 and hp.triple_weight > 0.0
            crossed += chunked and n2 > per_chunk
            ragged += chunked and n2 % per_chunk != 0
            pairs = [
                (int(rng.integers(n_s)), int(rng.integers(n_t)), float(rng.choice([1.0, 0.5, 0.0])))
                for _ in range(int(rng.integers(1, 12)))
            ]
            seed = int(rng.integers(1 << 30))
            assert_trains_like_reference(pair, hp, seed, labels(pairs))
        assert crossed > 20
        assert per_chunk == 1 or ragged > 20  # a last chunk shorter than the others

    @staticmethod
    def _train_peaks(settings) -> list[int]:
        """tracemalloc's peak during one epoch of ``train`` for each
        (negatives, triples) setting, on 1000-entity graphs at d = 64."""
        import scipy.sparse  # noqa: F401  (its import would count as trainer memory)

        peaks = []
        for k, n_triples in settings:
            rng = np.random.default_rng(5)
            pair = random_pair(rng, n_entities=1000, n_relations=4, n_triples=n_triples)
            positives = observed(*[(i, i, 1.0) for i in range(0, 1000, 5)])
            model = init_model(pair, Hyperparams(dim=64, negatives=k, epochs=1), seed=1)
            tracemalloc.start()
            try:
                train(model, pair, positives)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_memory_flat_in_negatives(self):
        # tracemalloc sees numpy's buffers, on the worker thread too.
        # Holding every corrupted residual would add (16 - 2) * 2T * 64 * 8
        # bytes, about 43 MB here.
        peaks = self._train_peaks([(2, 3000), (16, 3000)])
        assert peaks[1] - peaks[0] < 8 << 20, peaks

    def test_peak_memory_flat_in_triples(self):
        # At k = 4 a chunk holds 4096 of the 6000 or 24,000 directed triples
        # of each graph, so only the O(T * k) scalars grow with T: about
        # 3.5 MB for both graphs.  A row of d values per triple term would
        # add 4 * 9000 * 64 * 8 bytes, about 18 MB.
        peaks = self._train_peaks([(4, 3000), (4, 12000)])
        assert peaks[1] - peaks[0] < 8 << 20, peaks


class TestTrainThreads:
    """The target graph's side runs on a worker thread that ends with ``train``."""

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_failing_side_raises_and_leaves_no_thread(self, monkeypatch, side):
        pair = random_pair(np.random.default_rng(3), n_entities=12, n_relations=2, n_triples=30)
        model = init_model(pair, Hyperparams(dim=4, negatives=2, epochs=3), seed=0)
        failing_ents = model.ent_source if side == "source" else model.ent_target
        side_gradients = embedder._side_gradients

        def fail_on_one_side(work, align_rows, align_terms, ents, *rest):
            if ents is failing_ents:
                raise RuntimeError(f"{side} side failed")
            return side_gradients(work, align_rows, align_terms, ents, *rest)

        monkeypatch.setattr(embedder, "_side_gradients", fail_on_one_side)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^{side} side failed$"):
            train(model, pair, observed((0, 0, 1.0), (1, 1, 1.0)))
        assert threading.active_count() == before


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

    def test_id_arrays_match_scalar_calls(self, rng):
        pair = random_pair(rng, n_entities=12, n_relations=2, n_triples=20)
        model = init_model(pair, Hyperparams(dim=2), seed=5)
        n_s, n_t = len(model.ent_source), len(model.ent_target)
        model.ent_source *= rng.uniform(0.1, 10.0, size=(n_s, 1))  # scoring must not assume unit rows
        # a pair whose unclipped cosine rounds to 1 + 2^-52, its negation, and a zero row
        u = np.array([-0.535669373161111, 0.36159505490948474])
        model.ent_source[0], model.ent_target[0], model.ent_target[1] = u, 0.1 * u, -0.1 * u
        model.ent_source[1] = 0.0
        assert np.dot(u, 0.1 * u) / (np.linalg.norm(u) * np.linalg.norm(0.1 * u)) > 1.0
        src = np.concatenate([[0, 0, 1], rng.integers(n_s, size=200)])
        tgt = np.concatenate([[0, 1, 0], rng.integers(n_t, size=200)])
        got = score_pair(model, src, tgt)
        assert got.shape == src.shape
        assert got[:3].tolist() == [1.0, -1.0, 0.0]
        scalar = [score_pair(model, s, t) for s, t in zip(src.tolist(), tgt.tolist())]
        np.testing.assert_allclose(got, scalar, rtol=0, atol=1e-15)
        # the per-pair np.dot form the array call replaced
        reference = [
            np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0) if a.any() else 0.0
            for a, b in zip(model.ent_source[src], model.ent_target[tgt])
        ]
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-15)
        assert score_pair(model, src[:0], tgt[:0]).shape == (0,)

    def test_top_candidates_scores_match_score_pair(self, rng):
        pair = random_pair(rng, n_entities=12, n_relations=2, n_triples=20)
        model = init_model(pair, Hyperparams(dim=8), seed=5)
        model.ent_target *= rng.uniform(0.5, 3.0, size=(12, 1))  # scoring must not assume unit rows
        sources = [0, 4, 7, 9, 11, 2]
        got = oracles.column_tuples(_top_candidates(model, sources, list(range(12))))
        want = oracles.loop_mutual_nearest(model, sources, range(12))
        assert got == [(s, t, (c + 1.0) / 2.0) for s, t, c in want if c > 0.0]
        assert len(got) >= 2
        for s, t, q in got:
            assert q > 0.5 and abs(q - (score_pair(model, s, t) + 1.0) / 2.0) <= 1e-12

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

    def test_peak_memory_flat_in_candidates(self):
        # 4000 x 4000 scores would take 128 MB at once; one block holds
        # TOP_K_BLOCK_CELLS scores, and argpartition as many int64 ids
        rng = np.random.default_rng(8)
        model = embedder.NeuralModel(
            ent_source=rng.normal(size=(4000, 8)),
            ent_target=rng.normal(size=(4000, 8)),
            rel_source=np.zeros((0, 8)),
            rel_target=np.zeros((0, 8)),
            hyperparams=Hyperparams(dim=8),
        )
        tracemalloc.start()
        try:
            embedder.top_k(model, range(4000), range(4000), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * embedder.TOP_K_BLOCK_CELLS * 8, peak

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

    def test_top_candidates_match_lexsort_reference(self, rng, monkeypatch):
        """The blocked mutual-nearest kernel equals the dense loop, on models
        with planted exact ties and zero rows, in one block and in blocks
        so small that a target's best source is carried across them.  One
        block is the loop's own product, so its cosines match bit for bit;
        smaller products may round a cosine differently in the last bit."""
        tied_best = carried = 0
        for _ in range(300):
            model = tied_model(rng, int(rng.integers(2, 20)))
            n_s, n_t = model.ent_source.shape[0], model.ent_target.shape[0]
            model.ent_source[rng.integers(n_s)] = 0.0
            if rng.random() < 0.5:
                model.ent_target[rng.integers(n_t)] = 0.0
            sources = [int(s) for s in rng.permutation(n_s)[: int(rng.integers(1, n_s + 1))]]
            targets = [int(t) for t in rng.permutation(n_t)[: int(rng.integers(1, n_t + 1))]]
            want = oracles.loop_mutual_nearest(model, sources, targets)
            got = oracles.column_tuples(embedder.mutual_nearest(model, sources, targets))
            assert got == want
            positive = [(s, t, (c + 1.0) / 2.0) for s, t, c in want if c > 0.0]
            assert oracles.column_tuples(_top_candidates(model, sources, targets)) == positive
            for cells in (1, int(rng.integers(2, 3 * len(targets)))):
                monkeypatch.setattr(embedder, "TOP_K_BLOCK_CELLS", cells)
                got = oracles.column_tuples(embedder.mutual_nearest(model, sources, targets))
                assert [(s, t) for s, t, _ in got] == [(s, t) for s, t, _ in want]
                for (_, _, c), (_, _, c_want) in zip(got, want):
                    assert abs(c - c_want) <= 1e-12
                rows = max(1, cells // len(targets))
                carried += sum(sorted(sources).index(s) >= rows for s, _, _ in want)
            monkeypatch.undo()
            src, tgt = sorted(sources), sorted(targets)
            scores = oracles.dense_cosines(model, src, tgt)
            for s, t, c in want:
                i, j = src.index(s), tgt.index(t)
                tied_best += np.count_nonzero(scores[i] == c) > 1 or np.count_nonzero(scores[:, j] == c) > 1
        assert tied_best > 50  # exact ties did decide a best on either side
        assert carried > 100

    def test_top_candidates_need_positive_cosine(self):
        # both sources have a mutual nearest neighbour, but at a negative
        # cosine, so a model pointing away labels nothing
        model = embedder.NeuralModel(
            ent_source=np.eye(2),
            ent_target=-np.array([[1.0, 2.0], [2.0, 1.0]]),
            rel_source=np.zeros((0, 2)),
            rel_target=np.zeros((0, 2)),
            hyperparams=Hyperparams(dim=2),
        )
        src, tgt, cos = embedder.mutual_nearest(model, [1, 0], [1, 0])
        assert src.tolist() == [0, 1] and tgt.tolist() == [0, 1]
        np.testing.assert_allclose(cos, [-(5**-0.5)] * 2, rtol=0, atol=1e-15)
        assert all(len(col) == 0 for col in _top_candidates(model, [0, 1], [0, 1]))
        assert all(len(col) == 0 for col in _top_candidates(model, [], [0, 1]))
        assert all(len(col) == 0 for col in _top_candidates(model, [0, 1], []))

    def test_mutual_nearest_memory_flat_in_candidates(self):
        # the 4000 x 4000 cosines would take 128 MB at once; one block
        # holds TOP_K_BLOCK_CELLS of them
        rng = np.random.default_rng(8)
        model = embedder.NeuralModel(
            ent_source=rng.normal(size=(4000, 8)),
            ent_target=rng.normal(size=(4000, 8)),
            rel_source=np.zeros((0, 8)),
            rel_target=np.zeros((0, 8)),
            hyperparams=Hyperparams(dim=8),
        )
        tracemalloc.start()
        try:
            src, _, _ = embedder.mutual_nearest(model, range(4000), range(4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(src) > 0
        assert peak < 1.5 * embedder.TOP_K_BLOCK_CELLS * 8, peak


class TestGreedyMatching:
    def test_second_best_displaced(self):
        got = greedy_rows([(0, 0, 0.9), (0, 1, 0.8), (1, 1, 0.7)])
        assert [(s, t) for s, t, _ in got] == [(0, 0), (1, 1)]

    def test_loser_shares_target(self):
        got = greedy_rows([(0, 0, 0.9), (1, 0, 0.8)])
        assert [(s, t) for s, t, _ in got] == [(0, 0)]

    def test_empty(self):
        assert greedy_rows([]) == []

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
        # scores from a small set plant exact ties, plus repeated and
        # re-scored offers
        for _ in range(300):
            offers = [
                (int(rng.integers(8)), int(rng.integers(8)), float(rng.choice([0.25, 0.5, 0.75, 0.0])))
                for _ in range(int(rng.integers(0, 40)))
            ]
            offers += [offers[int(i)] for i in rng.integers(0, len(offers), size=min(len(offers), 5))]
            offers += [(s, t, 1.0 - v) for s, t, v in offers[:3]]
            assert greedy_rows(offers) == oracles.sorted_greedy(offers)

    def test_edge_cases_match_sorted_reference(self):
        duplicated = [(0, 0, 0.5), (0, 0, 0.5), (1, 0, 0.5), (0, 0, 0.9), (1, 1, 0.5), (1, 1, 0.5)]
        for offers in ([], duplicated):
            assert greedy_rows(offers) == oracles.sorted_greedy(offers)
        assert greedy_rows(duplicated) == [(0, 0, 0.9), (1, 1, 0.5)]
