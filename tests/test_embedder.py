"""Tests for the anchor-propagation scorer and its matching helpers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from kgalign import embedder
from kgalign.em import _top_candidates
from kgalign.embedder import (
    Hyperparams,
    NeuralModel,
    Origin,
    PseudoLabelSet,
    greedy_one_to_one,
    init_model,
    rank_candidates,
    score_pair,
    train,
)
from kgalign.graph import KnowledgeGraph, KnowledgeGraphPair, load_graph

import oracles
from conftest import isomorphic_pair, random_pair, split_gold


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


def random_features(pair: KnowledgeGraphPair, dim: int, seed: int) -> NeuralModel:
    """A model whose features are Gaussian unit rows drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    model = init_model(pair, Hyperparams(dim=dim), seed)
    model.ent_source = embedder._unit_rows(rng.normal(size=model.ent_source.shape))
    model.ent_target = embedder._unit_rows(rng.normal(size=model.ent_target.shape))
    return model


def bare_graph(prefix: str, n_entities: int, triples=()) -> KnowledgeGraph:
    return KnowledgeGraph([f"{prefix}{i}" for i in range(n_entities)], ["r", "s"], list(triples))


def sparse_graph(rng, prefix: str, n_entities: int) -> KnowledgeGraph:
    """Random triples among a random prefix of the entities, so the rest
    are isolated, with four triples repeated under the other relation as
    parallel edges and self-loops allowed."""
    used = int(rng.integers(1, n_entities + 1))
    rows = [
        (int(rng.integers(used)), int(rng.integers(2)), int(rng.integers(used)))
        for _ in range(int(rng.integers(0, 3 * used)))
    ]
    if rows:
        rows += [(h, 1 - r, t) for h, r, t in (rows[int(i)] for i in rng.integers(0, len(rows), size=4))]
    return bare_graph(prefix, n_entities, rows)


def random_label_sets(rng, pair: KnowledgeGraphPair, n: int) -> list[PseudoLabelSet]:
    """n label rows, some repeated, split into an observed set at 1 and a
    symbolic set weighted as the E-step weighs it (``hidden_weight`` x
    score, zero included)."""
    n_s, n_t = pair.source.n_entities, pair.target.n_entities
    rows = [(int(rng.integers(n_s)), int(rng.integers(n_t))) for _ in range(n)]
    rows[n - n // 4 :] = rows[: n // 4]  # repeated label rows
    cut = int(rng.integers(0, n + 1))
    weight = float(rng.choice([1.0, 0.7, 0.0]))
    inferred = [(s, t, weight * float(rng.uniform(0.9, 1.0))) for s, t in rows[cut:]]
    return [
        labels([(s, t, 1.0) for s, t in rows[:cut]], Origin.OBSERVED),
        labels(inferred, Origin.SYMBOLIC),
    ]


def assert_propagates_like_reference(pair, hp, seed, positives):
    """``train`` and ``oracles.dense_propagate`` agree on the features and
    the per-step changes, and ``train`` leaves one entry per step."""
    model = init_model(pair, hp, seed)
    want_s, want_t, want_losses = oracles.dense_propagate(model, pair, positives)
    report = train(model, pair, positives)
    assert len(report.epoch_losses) == hp.epochs
    np.testing.assert_allclose(model.ent_source, want_s, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.ent_target, want_t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.epoch_losses, want_losses, rtol=1e-10, atol=1e-12)
    return model


class TestHyperparams:
    def test_defaults_valid(self):
        Hyperparams().validate()
        assert Hyperparams() == Hyperparams(dim=64, epochs=10)

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="dimension"):
            Hyperparams(dim=1).validate()

    def test_negative_negatives(self):
        # the SGD knobs are gone, so setting one is an error
        for knob in ("negatives", "learning_rate", "margin", "triple_weight"):
            with pytest.raises(TypeError, match=knob):
                Hyperparams(**{knob: -1})

    def test_negative_epochs(self):
        Hyperparams(epochs=0).validate()
        with pytest.raises(ValueError, match="epochs"):
            Hyperparams(epochs=-1).validate()


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

    def test_features_start_at_zero(self, rng):
        # zero rows have cosine 0 with everything, so an untrained model
        # labels nothing
        pair = random_pair(rng)
        model = init_model(pair, Hyperparams(dim=16), seed=0)
        assert not model.ent_source.any() and not model.ent_target.any()
        assert all(len(col) == 0 for col in _top_candidates(model, range(10), range(10)))

    def test_same_seed_identical(self, rng):
        pair = random_pair(rng)
        a = init_model(pair, Hyperparams(dim=8), seed=11)
        b = init_model(pair, Hyperparams(dim=8), seed=11)
        positives = observed((0, 0, 1.0), (3, 4, 0.9))
        train(a, pair, positives)
        train(b, pair, positives)
        assert np.array_equal(a.ent_source, b.ent_source)
        assert np.array_equal(a.ent_target, b.ent_target)

    def test_different_seed_differs(self, rng):
        pair = random_pair(rng)
        a = init_model(pair, Hyperparams(dim=8), seed=1)
        b = init_model(pair, Hyperparams(dim=8), seed=2)
        positives = observed((0, 0, 1.0), (3, 4, 0.9))
        train(a, pair, positives)
        train(b, pair, positives)
        assert not np.array_equal(a.ent_source, b.ent_source)


class TestTrain:
    def test_loss_decreases_on_isomorphic_pair(self):
        # the per-step feature change shrinks as the propagation settles
        pair, gold = isomorphic_pair(5, n_entities=20, n_relations=3, n_triples=60)
        train_seed, _ = split_gold(gold, 0.5, seed=1)
        model = init_model(pair, Hyperparams(dim=16, epochs=60), seed=2)
        positives = observed(*[(s, t, 1.0) for s, t in train_seed.pairs])
        report = train(model, pair, positives)
        assert report.final < 1e-3 * report.epoch_losses[0]

    def test_trained_pairs_score_high(self):
        pair, gold = isomorphic_pair(9, n_entities=20, n_relations=3, n_triples=60)
        train_seed, test_seed = split_gold(gold, 0.5, seed=4)
        model = init_model(pair, Hyperparams(dim=16, epochs=10), seed=0)
        train(model, pair, observed(*[(s, t, 1.0) for s, t in train_seed.pairs]))
        targets = list(range(pair.target.n_entities))
        for seed in (train_seed, test_seed):
            hits = sum(1 for s, t in seed.pairs if t in rank_candidates(model, [s], targets, 3)[0])
            assert hits >= int(0.7 * len(seed.pairs))

    def test_unit_norms_preserved(self, rng):
        # rows are unit or exactly zero, and zero only where no anchor reaches
        pair = KnowledgeGraphPair(source=sparse_graph(rng, "a", 12), target=sparse_graph(rng, "b", 12))
        model = init_model(pair, Hyperparams(dim=8, epochs=3), seed=1)
        train(model, pair, observed((0, 0, 1.0), (1, 1, 1.0)))
        for mat in (model.ent_source, model.ent_target):
            norms = np.linalg.norm(mat, axis=1)
            zero = norms == 0.0
            np.testing.assert_allclose(norms[~zero], 1.0, rtol=0, atol=1e-12)
            assert zero.any() and not zero[:2].any()

    def test_multiple_label_sets_concatenate(self):
        pair = tiny_pair()
        hp = Hyperparams(dim=4, epochs=1)
        a = init_model(pair, hp, seed=3)
        train(a, pair, [observed((0, 0, 1.0)), observed((1, 1, 1.0))])
        b = init_model(pair, hp, seed=3)
        train(b, pair, observed((0, 0, 1.0), (1, 1, 1.0)))
        assert np.array_equal(a.ent_source, b.ent_source)
        assert np.array_equal(a.ent_target, b.ent_target)

    def test_no_labels_leave_zero_features(self):
        pair = tiny_pair()
        model = init_model(pair, Hyperparams(dim=4, epochs=3), seed=0)
        report = train(model, pair, [observed(), labels([], Origin.SYMBOLIC)])
        assert report.epoch_losses == [0.0, 0.0, 0.0]
        assert not model.ent_source.any() and not model.ent_target.any()

    def test_anchor_inner_products_exact(self):
        # with no more anchors than dimensions the anchor vectors are
        # orthonormal, so without edges each anchored pair scores exactly
        # its own anchor: cosine 1 to its counterpart, 0 to the others
        pair = KnowledgeGraphPair(source=bare_graph("a", 5), target=bare_graph("b", 5))
        model = init_model(pair, Hyperparams(dim=4, epochs=2), seed=6)
        train(model, pair, observed((0, 1, 1.0), (1, 0, 0.5), (2, 3, 1.0), (3, 2, 0.7)))
        cos = oracles.dense_cosines(model, range(4), range(4))
        np.testing.assert_allclose(cos, np.eye(4)[[1, 0, 3, 2]], rtol=0, atol=1e-12)
        assert not model.ent_source[4].any() and not model.ent_target[4].any()

    def test_unreached_entities_never_labelled(self):
        # entity 3 of each graph sits in a component without anchors, so
        # its zero row scores 0 against everything and the cos > 0 rule
        # of the M-step never pairs it
        rows = [(0, 0, 1), (1, 0, 2), (3, 1, 4)]
        pair = KnowledgeGraphPair(source=bare_graph("a", 5, rows), target=bare_graph("b", 5, rows))
        model = init_model(pair, Hyperparams(dim=4, epochs=4), seed=2)
        train(model, pair, observed((0, 0, 1.0)))
        assert np.flatnonzero(np.linalg.norm(model.ent_source, axis=1)).tolist() == [0, 1, 2]
        src, tgt, _ = _top_candidates(model, [1, 2, 3, 4], [1, 2, 3, 4])
        assert not {3, 4} & set(src.tolist()) and not {3, 4} & set(tgt.tolist())
        assert len(src) > 0

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 8, 9, 40, 400])
    def test_anchor_vectors_orthonormal(self, n):
        # rows while they fit the dimension, columns once they do not
        for seed in range(200):
            p = embedder._anchor_vectors(np.random.default_rng(seed), n, 8)
            assert p.shape == (n, 8)
            gram = p @ p.T if n <= 8 else p.T @ p
            np.testing.assert_allclose(gram, np.eye(min(n, 8)), rtol=0, atol=1e-12)


class TestTrainMatchesReference:
    """The blocked propagation against the dense reference in ``oracles``."""

    def test_random_family(self, rng):
        seen = {"few": 0, "many": 0, "no steps": 0}
        for case in range(120):
            pair = KnowledgeGraphPair(
                source=sparse_graph(rng, "a", int(rng.integers(1, 25))),
                target=sparse_graph(rng, "b", int(rng.integers(1, 25))),
            )
            hp = Hyperparams(dim=int(rng.integers(2, 9)), epochs=int(rng.integers(0, 6)))
            n = int(rng.integers(0, 14))
            seen["few"] += 0 < n <= hp.dim
            seen["many"] += n > hp.dim
            seen["no steps"] += hp.epochs == 0
            sets = random_label_sets(rng, pair, n)
            assert_propagates_like_reference(pair, hp, int(rng.integers(1 << 30)), sets)
        assert min(seen.values()) > 10, seen

    @pytest.mark.parametrize("empty_side", ["source", "target"])
    def test_one_graph_without_triples(self, rng, empty_side):
        full = sparse_graph(rng, "a", 12)
        empty = bare_graph("x", 12)
        pair = (
            KnowledgeGraphPair(source=empty, target=full)
            if empty_side == "source"
            else KnowledgeGraphPair(source=full, target=empty)
        )
        hp = Hyperparams(dim=6, epochs=3)
        positives = observed((0, 1, 1.0), (2, 2, 0.8), (3, 4, 1.0))
        model = assert_propagates_like_reference(pair, hp, 5, positives)
        bare = model.ent_source if empty_side == "source" else model.ent_target
        anchored = [0, 2, 3] if empty_side == "source" else [1, 2, 4]
        assert np.flatnonzero(np.linalg.norm(bare, axis=1)).tolist() == anchored


class TestTrainChunks:
    """The neighbour mean walks the edges a block of whole entities at a
    time; splitting the blocks must not change a bit."""

    @pytest.mark.parametrize("per_block", [1, 7])
    def test_matches_dense_reference_across_blocks(self, rng, monkeypatch, per_block):
        split = oversized = 0
        for _ in range(40):
            pair = KnowledgeGraphPair(
                source=sparse_graph(rng, "a", int(rng.integers(1, 25))),
                target=sparse_graph(rng, "b", int(rng.integers(1, 25))),
            )
            hp = Hyperparams(dim=int(rng.integers(2, 9)), epochs=int(rng.integers(1, 4)))
            sets = random_label_sets(rng, pair, int(rng.integers(1, 14)))
            seed = int(rng.integers(1 << 30))
            whole = init_model(pair, hp, seed)
            train(whole, pair, sets)
            monkeypatch.setattr(embedder, "TRAIN_CHUNK_CELLS", per_block * hp.dim)
            blocked = assert_propagates_like_reference(pair, hp, seed, sets)
            monkeypatch.undo()
            assert np.array_equal(blocked.ent_source, whole.ent_source)
            assert np.array_equal(blocked.ent_target, whole.ent_target)
            degree = np.diff(pair.source.directed_adj.indptr)
            split += degree.sum() > per_block
            oversized += degree.max(initial=0) > per_block
        assert split > 20 and oversized > 10  # blocks did split, and some entity outgrew one

    def test_peak_memory_flat_in_triples(self):
        # tracemalloc sees numpy's buffers.  One step holds the n x d
        # features and one block of TRAIN_CHUNK_CELLS gathered values, so
        # going from 6000 to 24,000 directed edges per graph adds almost
        # nothing; gathering a row per edge would add 18,000 * 64 * 8
        # bytes, about 9 MB, per graph.
        peaks = []
        for n_triples in (3000, 12000):
            pair = random_pair(np.random.default_rng(5), n_entities=1000, n_relations=4, n_triples=n_triples)
            positives = observed(*[(i, i, 1.0) for i in range(0, 1000, 5)])
            model = init_model(pair, Hyperparams(dim=64, epochs=1), seed=1)
            tracemalloc.start()
            try:
                train(model, pair, positives)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 << 20, peaks

    def test_peak_memory_flat_in_steps(self):
        # The steps swap two n x d buffers, so ten steps hold what one
        # does: the first graph's finished features, the two buffers and
        # TELEPORT times the start, plus the anchors and one neighbour-mean
        # block (its gathered rows, their sums and their means).  A new
        # array per step would add an n x d array, 2 MB here.  The old
        # features are traced too: train releases them first.
        n, d = 4000, 64
        pair = random_pair(np.random.default_rng(5), n_entities=n, n_relations=4, n_triples=12000)
        positives = observed(*[(i, i, 1.0) for i in range(0, n, 5)])
        peaks = []
        for epochs in (1, 10):
            tracemalloc.start()
            try:
                model = init_model(pair, Hyperparams(dim=d, epochs=epochs), seed=1)
                train(model, pair, positives)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
        budget = (4 * n * d + len(positives) * d + 3 * embedder.TRAIN_CHUNK_CELLS) * 8
        assert max(peaks) < budget, (peaks, budget)

    def test_unit_rows_zero_a_row_whose_norm_underflows(self):
        # in place, a row whose squares underflow to a norm of 0 must
        # still become 0, as a zero row does
        mat = np.array([[3.0, 4.0], [1e-170, -1e-170], [0.0, 0.0]])
        assert embedder._unit_rows(mat) is mat
        assert mat.tolist() == [[0.6, 0.8], [0.0, 0.0], [0.0, 0.0]]

    def test_neighbour_mean_overwrites_out(self, rng):
        # ``out`` starts as garbage, so every row, an entity without edges
        # too, must be written
        isolated = 0
        for _ in range(40):
            graph = sparse_graph(rng, "a", int(rng.integers(1, 25)))
            z = rng.normal(size=(graph.n_entities, int(rng.integers(1, 9))))
            want = embedder._neighbour_mean(graph.directed_adj, z)
            buf = np.full_like(z, np.nan)
            buf[::2] = rng.normal(size=buf[::2].shape)
            got = embedder._neighbour_mean(graph.directed_adj, z, out=buf)
            assert got is buf
            assert np.array_equal(got, want)
            isolated += np.any(np.diff(graph.directed_adj.indptr) == 0)
        assert isolated > 10


class TestScoring:
    def _model_with_rows(self, rows: dict[int, list[float]], n_targets: int = 10):
        rng = np.random.default_rng(0)
        pair = random_pair(rng, n_entities=n_targets, n_relations=2, n_triples=12)
        model = random_features(pair, dim=2, seed=0)
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
        model = random_features(pair, dim=2, seed=5)
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
        model = random_features(pair, dim=8, seed=5)
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
        model = random_features(pair, dim=8, seed=5)
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
    model = random_features(pair, dim, seed=int(rng.integers(1 << 30)))
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

    def test_matches_loop_reference_short_last_block(self, rng, monkeypatch):
        # blocks of several rows, the last one shorter, so the last block
        # uses the front of each buffer
        monkeypatch.setattr(embedder, "TOP_K_BLOCK_CELLS", 40)
        for _ in range(100):
            self._check_against_loop(rng, tied_model(rng, int(rng.integers(2, 15))))

    def test_zero_rows_tie_at_the_cut(self, rng):
        # One block holds every row: zero source rows, whose scores all tie
        # at 0, beside rows whose cut falls among the zero target rows'
        # tied 0 scores, beside untied rows; k runs past the candidate count.
        n_s, n_t = 42, 30
        assert embedder.TOP_K_BLOCK_CELLS >= n_s * n_t
        model = NeuralModel(
            ent_source=rng.normal(size=(n_s, 3)),
            ent_target=rng.normal(size=(n_t, 3)),
            hyperparams=Hyperparams(dim=3),
        )
        model.ent_source[::7] = 0.0
        model.ent_target[::3] = 0.0
        zero_targets = set(range(0, n_t, 3))
        cands = [int(t) for t in rng.permutation(n_t)]
        full = {s: oracles.loop_rank(model, s, cands) for s in range(n_s)}
        cut_in_zeros = untied = 0
        for k in range(1, n_t + 3):
            got = rank_candidates(model, range(n_s), cands, k)
            for s, ranked in zip(range(n_s), got):
                assert ranked == full[s][:k]
                if s % 7 and k < n_t:
                    tie = {full[s][k - 1], full[s][k]} <= zero_targets
                    cut_in_zeros += tie
                    untied += not tie
        assert cut_in_zeros > 20 and untied > 100

    def test_peak_memory_flat_in_candidates(self):
        # 4000 x 4000 scores would take 128 MB at once.  A call holds one
        # block of TOP_K_BLOCK_CELLS scores and a bool mask of the same
        # shape; beside them, the candidates' unit rows, the outputs (ids,
        # scores and the returned target ids, k of each per source), and
        # per-block temporaries under 512 KB: the group maxima, 16 k per
        # row, and the cells that pass the bound, about k per row.
        rng = np.random.default_rng(8)
        n, d, k = 4000, 8, 10
        model = NeuralModel(
            ent_source=rng.normal(size=(n, d)),
            ent_target=rng.normal(size=(n, d)),
            hyperparams=Hyperparams(dim=d),
        )
        peaks = []
        for n_sources in (1000, 4000):
            tracemalloc.start()
            try:
                embedder.top_k(model, range(n_sources), range(n), k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            budget = (embedder.TOP_K_BLOCK_CELLS + n * d + n_sources * k * 3) * 8
            budget += embedder.TOP_K_BLOCK_CELLS + (512 << 10)
            assert peaks[-1] < budget, (peaks, budget)
        assert peaks[1] - peaks[0] < 1 << 20, peaks

    def test_matches_loop_reference_in_column_groups(self, rng):
        # more candidates than column groups, mostly not a multiple of the
        # group count, so the bound comes from group maxima and some columns
        # past the last whole stride join no group
        folded = 0
        for _ in range(60):
            model = tied_model(rng, int(rng.integers(80, 200)))
            n_s, n_t = model.ent_source.shape[0], model.ent_target.shape[0]
            k = int(rng.integers(1, 3))
            cands = [int(t) for t in rng.permutation(n_t)[: int(rng.integers(40, n_t + 1))]]
            groups = embedder.TOP_K_GROUPS_PER_K * k
            assert len(cands) > groups
            folded += len(cands) % groups > 0
            sources = [int(s) for s in rng.permutation(n_s)[: int(rng.integers(1, n_s + 1))]]
            for s, ranked in zip(sources, rank_candidates(model, sources, cands, k)):
                assert ranked == oracles.loop_rank(model, s, cands)[:k]
        assert folded > 40

    def test_group_bound_ties_in_zero_rows(self, rng):
        # Fewer than k targets score above 0 for source 0, and the rest
        # score 0 (zero rows) or below, so the k-th group maximum is a 0:
        # every zero row passes the bound and the cut falls among them.
        n_t, k = 100, 5
        groups = embedder.TOP_K_GROUPS_PER_K * k
        assert groups < n_t and n_t % groups
        target = np.zeros((n_t, 3))
        target[1::2] = -np.abs(rng.normal(size=(n_t // 2, 3)))
        target[[7, 40, 95]] = [[1.0, 0.5, 0.0], [2.0, 0.1, 0.3], [0.2, 0.0, 1.0]]
        model = NeuralModel(
            ent_source=np.array([[1.0, 0.2, 0.1], [0.0, 0.0, 0.0], [-1.0, -1.0, -1.0]]),
            ent_target=target,
            hyperparams=Hyperparams(dim=3),
        )
        cands = [int(t) for t in rng.permutation(n_t)]
        got = rank_candidates(model, range(3), cands, k)
        for s, ranked in enumerate(got):
            assert ranked == oracles.loop_rank(model, s, cands)[:k]
        assert got[0] == [40, 7, 95, 0, 2] and got[1] == [0, 1, 2, 3, 4]

    def test_clipping_ties_scores_beyond_one(self):
        # Unit rows of a vector and of a multiple of it can score 1 + 2^-52
        # and exactly 1 against the vector; both clip to 1, so the lower id
        # wins, although the bound on the unclipped scores sits above 1.
        # Against the negated vector they score -1 - 2^-52 and -1, and
        # clip to -1 alike.
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a = rng.normal(size=3)
            target = np.stack([5.0 * a, a, 5.0 * a])
            unit_a = embedder._unit_rows(a[None].copy())
            unclipped = np.matmul(unit_a, embedder._unit_rows(target.copy()).T)[0]
            if unclipped[0] == 1.0 < unclipped[1]:
                break
        else:
            raise AssertionError("no vector rounds above a cosine of 1")
        model = NeuralModel(ent_source=np.stack([a, -a]), ent_target=target, hyperparams=Hyperparams(dim=3))
        for s, cands, best in ((0, [1, 0], 0), (1, [2, 1], 1)):
            ids, scores = embedder.top_k(model, [s], cands, 1)
            assert ids.tolist() == [[best]] and abs(scores[0, 0]) == 1.0
            assert rank_candidates(model, [s], cands, 2) == [oracles.loop_rank(model, s, cands)]

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
        model = NeuralModel(
            ent_source=np.eye(2),
            ent_target=-np.array([[1.0, 2.0], [2.0, 1.0]]),
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
        model = NeuralModel(
            ent_source=rng.normal(size=(4000, 8)),
            ent_target=rng.normal(size=(4000, 8)),
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
