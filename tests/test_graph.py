"""Tests for the indexed graph model and seed handling."""

from __future__ import annotations

import numpy as np
import pytest

from kgalign.graph import (
    AlignmentSeed,
    IngestError,
    KnowledgeGraph,
    KnowledgeGraphPair,
    check_key_space,
    is_one_to_one,
    load_graph,
    validate_seed_sets,
)

import oracles
from conftest import pack_direction, random_graph


class TestLoadGraph:
    def test_duplicate_triples_collapse(self):
        kg = load_graph([("a", "r", "b"), ("a", "r", "b")])
        assert kg.n_entities == 2
        assert kg.n_relations == 1
        assert kg.n_triples == 1

    def test_index_inversion(self):
        kg = load_graph([("a", "r", "b"), ("b", "s", "c")])
        b = kg.entity_ids["b"]
        s, c = kg.relation_ids["s"], kg.entity_ids["c"]
        r, a = kg.relation_ids["r"], kg.entity_ids["a"]
        edges = kg.neighbors(b)
        assert [(d >> 1, nbr) for d, nbr in edges if not d & 1] == [(s, c)]
        assert [(d >> 1, nbr) for d, nbr in edges if d & 1] == [(r, a)]

    def test_triple_columns_read_only_in_triple_order(self, rng):
        kg = random_graph(rng, 10, 3, 25)
        h, r, t = kg.triple_columns
        ref = oracles.loop_load_graph(kg.triple_records())
        assert list(zip(h.tolist(), r.tolist(), t.tolist())) == list(ref.triples)
        for col in (h, r, t):
            assert col.dtype == np.int64 and not col.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h[0] = 0

    def test_triple_columns_without_triples(self):
        kg = KnowledgeGraph(["a"], ["r"], [])
        assert [len(col) for col in kg.triple_columns] == [0, 0, 0]

    def test_wrong_arity_names_record(self):
        with pytest.raises(IngestError, match="record 2"):
            load_graph([("a", "r", "b"), ("a", "r")])

    def test_empty_field_rejected(self):
        with pytest.raises(IngestError, match="record 1"):
            load_graph([("a", "", "b")])

    def test_first_seen_id_order(self):
        kg = load_graph([("x", "r", "y"), ("a", "s", "x")])
        assert kg.entity_labels[:3] == ("x", "y", "a")
        assert kg.relation_labels == ("r", "s")

    def test_self_loops_kept(self):
        kg = load_graph([("a", "r", "a")])
        assert kg.n_triples == 1
        assert kg.neighbors(0) == [(pack_direction(0, False), 0), (pack_direction(0, True), 0)]


def assert_index_matches_loop(kg: KnowledgeGraph, triples) -> None:
    ref = oracles.loop_index(kg.entity_labels, kg.relation_labels, triples)
    assert oracles.triple_tuples(kg) == ref.triples
    for got, want in (
        *zip(kg.triple_columns, ref.triple_columns),
        *zip(kg.directed_adj, ref.directed_adj),
        *zip(kg.edge_index, ref.edge_index),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestIndex:
    def test_repeated_rows_keep_the_first(self, caplog):
        rows = [(0, 1, 2), (2, 0, 0), (0, 1, 2), (1, 1, 1), (2, 0, 0), (1, 1, 1), (2, 0, 0)]
        with caplog.at_level("INFO", logger="kgalign.graph"):
            kg = KnowledgeGraph(["a", "b", "c"], ["r", "s"], rows)
        assert oracles.triple_tuples(kg) == ((0, 1, 2), (2, 0, 0), (1, 1, 1))
        assert kg.n_triples == 3
        assert_index_matches_loop(kg, [(0, 1, 2), (2, 0, 0), (1, 1, 1)])
        assert "dropped 4 repeated triples" in caplog.text

    def test_matches_lexsort_index(self, rng):
        for _ in range(100):
            n_entities, n_relations = (int(x) for x in rng.integers(1, 6, size=2))
            n = int(rng.integers(0, 30))
            rows = [
                (int(h), int(r), int(t))
                for h, r, t in zip(
                    rng.integers(n_entities, size=n),
                    rng.integers(n_relations, size=n),
                    rng.integers(n_entities, size=n),
                )
            ]
            labels = [f"e{i}" for i in range(n_entities)], [f"r{i}" for i in range(n_relations)]
            distinct = list(dict.fromkeys(rows))  # the first of each repeated row
            assert_index_matches_loop(KnowledgeGraph(*labels, rows), distinct)
            assert_index_matches_loop(KnowledgeGraph(*labels, np.array(rows).reshape(-1, 3)), distinct)


class TestKeySpace:
    @pytest.mark.parametrize(
        "n_entities, n_relations",
        [(2**30, 3), (2**30, 4), (2**31 - 1, 1), (2**31, 1), (3, 2**59), (1000, 10**12), (0, 5)],
    )
    def test_guard_matches_largest_key(self, n_entities, n_relations):
        largest = 2 * n_entities**2 * n_relations - 1  # ((E-1)R + R-1)E + E-1, times 2, plus 1
        if largest >= 2**63 - 1:
            with pytest.raises(IngestError, match=f"{n_entities} entities and {n_relations} relations"):
                check_key_space(n_entities, n_relations)
            return
        check_key_space(n_entities, n_relations)
        if n_entities:
            e, r = np.array([n_entities - 1]), np.array([n_relations - 1])
            key = ((e * n_relations + r) * n_entities + e) * 2 + 1
            assert key.dtype == np.int64 and int(key[0]) == largest


class TestNeighbors:
    def test_forward_edge(self):
        kg = load_graph([("a", "r", "b")])
        assert kg.neighbors(kg.entity_ids["a"]) == [(pack_direction(0, False), kg.entity_ids["b"])]

    def test_inverse_edge(self):
        kg = load_graph([("a", "r", "b")])
        assert kg.neighbors(kg.entity_ids["b"]) == [(pack_direction(0, True), kg.entity_ids["a"])]

    def test_two_inverse_edges_ordered(self):
        kg = load_graph([("a", "r", "b"), ("c", "r", "b")])
        a, b, c = (kg.entity_ids[x] for x in "abc")
        assert kg.neighbors(b) == [(pack_direction(0, True), a), (pack_direction(0, True), c)]

    def test_unknown_entity(self):
        kg = load_graph([("a", "r", "b")])
        with pytest.raises(KeyError):
            kg.neighbors(99)

    def test_degree_sum_property(self, rng):
        for _ in range(50):
            kg = random_graph(rng, 8, 3, 15)
            triples = oracles.triple_tuples(kg)
            for e in range(kg.n_entities):
                out_deg = sum(1 for h, _, _ in triples if h == e)
                in_deg = sum(1 for _, _, t in triples if t == e)
                assert len(kg.neighbors(e)) == out_deg + in_deg


class TestPackedDirection:
    def test_flip_involution(self):
        d = pack_direction(3, False)
        assert d ^ 1 ^ 1 == d
        assert (d ^ 1) >> 1 == 3 and (d ^ 1) & 1 == 1

    def test_pack_unpack_roundtrip(self, rng):
        tuples = [(int(rng.integers(0, 500)), bool(rng.integers(0, 2))) for _ in range(200)]
        for base, inv in tuples:
            packed = pack_direction(base, inv)
            assert (packed >> 1, bool(packed & 1)) == (base, inv)
            assert ((packed ^ 1) >> 1, bool((packed ^ 1) & 1)) == (base, not inv)
        # Packed ids sort as the (base, inverse) pairs they encode.
        assert sorted(tuples, key=lambda bi: pack_direction(*bi)) == sorted(tuples)

    def test_directed_label(self):
        kg = load_graph([("a", "spouse", "b")])
        assert kg.directed_label(pack_direction(0, False)) == "spouse"
        assert kg.directed_label(pack_direction(0, True)) == "spouse^-1"

    def test_label_shadowing_an_inverse_warns_once_per_pair(self, caplog):
        # the inverse of likes and the relation likes^-1 print alike; the
        # graph still keeps them apart
        with caplog.at_level("WARNING", logger="kgalign.graph"):
            kg = load_graph([("a", "likes", "b"), ("b", "likes^-1", "c"), ("c", "likes^-1^-1", "a")])
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 2
        assert "'likes' and 'likes^-1'" in warned[0]
        assert "'likes^-1' and 'likes^-1^-1'" in warned[1]
        assert kg.directed_label(pack_direction(0, True)) == kg.directed_label(pack_direction(1, False))
        caplog.clear()
        with caplog.at_level("WARNING", logger="kgalign.graph"):
            load_graph([("a", "likes", "b"), ("b", "likes-1", "c"), ("c", "^-1", "a")])
        assert not caplog.records


class TestRoundTrip:
    def test_triple_records_roundtrip(self, rng):
        for _ in range(25):
            kg = random_graph(rng, 10, 4, 30)
            again = load_graph(kg.triple_records())
            assert set(again.triple_records()) == set(kg.triple_records())
            assert again.n_triples == kg.n_triples


class TestSeeds:
    def test_lookup_both_ways(self):
        seed = AlignmentSeed(pairs=((0, 5), (1, 7)))
        assert seed.by_source[1] == 7
        assert len(seed) == 2

    def test_train_one_to_one_enforced(self):
        train = AlignmentSeed(pairs=((0, 5), (0, 6)))
        empty_v = AlignmentSeed(pairs=())
        empty_t = AlignmentSeed(pairs=())
        with pytest.raises(IngestError, match="one-to-one"):
            validate_seed_sets(train, empty_v, empty_t)

    def test_labels_checked_one_to_one(self):
        # ``kgalign split`` passes label pairs, not ids
        empty = AlignmentSeed(pairs=())
        validate_seed_sets(AlignmentSeed(pairs=(("a", "x"), ("b", "y"))), empty, empty)
        for pairs in ((("a", "x"), ("a", "y")), (("a", "x"), ("b", "x"))):
            with pytest.raises(IngestError, match="one-to-one"):
                validate_seed_sets(AlignmentSeed(pairs=pairs), empty, empty)

    def test_is_one_to_one(self, rng):
        assert is_one_to_one([], [])
        assert is_one_to_one(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert is_one_to_one([3], [0]) and is_one_to_one([0, 9, 4], [9, 0, 2])
        assert not is_one_to_one([0, 9, 0], [1, 2, 3]) and not is_one_to_one([0, 1, 2], [5, 6, 5])
        for _ in range(200):
            n = int(rng.integers(0, 12))
            src, tgt = rng.integers(0, 15, size=n), rng.integers(0, 15, size=n)
            assert is_one_to_one(src, tgt) == (len(set(src.tolist())) == len(set(tgt.tolist())) == n)

    def test_disjointness_enforced(self):
        train = AlignmentSeed(pairs=((0, 5),))
        valid = AlignmentSeed(pairs=((0, 5),))
        test = AlignmentSeed(pairs=((2, 9),))
        with pytest.raises(IngestError, match="overlap"):
            validate_seed_sets(train, valid, test)


def _listed_relations(pair: KnowledgeGraphPair, side: str, u: int, v: int) -> list[int]:
    keys, rel = pair.edge_relations(side)
    n = (pair.source if side == "source" else pair.target).n_entities
    lo, hi = np.searchsorted(keys, [u * n + v, u * n + v + 1])
    return rel[lo:hi].tolist()


class TestEdgeRelations:
    def test_both_directions_present(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("x", "s", "y")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        a, b = src.entity_ids["a"], src.entity_ids["b"]
        assert _listed_relations(pair, "source", a, b) == [pack_direction(0, False)]
        assert _listed_relations(pair, "source", b, a) == [pack_direction(0, True)]
        assert _listed_relations(pair, "source", a, a) == []

    def test_built_once_read_only(self):
        src = load_graph([("a", "r", "b"), ("b", "s", "c")])
        pair = KnowledgeGraphPair(source=src, target=load_graph([("x", "s", "y")]))
        assert "edge_index" not in vars(src)  # built on first use, not at load
        keys, rel = pair.edge_relations("source")
        again = pair.edge_relations("source")
        assert again[0] is keys and again[1] is rel
        for arr in (keys, rel):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_matches_neighbors(self, rng):
        for _ in range(25):
            # few entities and relations make parallel edges likely; add self loops
            loops = [(f"a{i}", f"r{i % 3}", f"a{i}") for i in range(0, 6, 2)]
            pair = KnowledgeGraphPair(
                source=load_graph(random_graph(rng, 6, 3, 25, "a").triple_records() + loops),
                target=random_graph(rng, 6, 3, 25, "b"),
            )
            for side, kg in (("source", pair.source), ("target", pair.target)):
                keys, rel = pair.edge_relations(side)
                assert np.all(np.diff(keys) >= 0)
                assert len(keys) == len(rel) == 2 * kg.n_triples
                for u in range(kg.n_entities):
                    for v in range(kg.n_entities):
                        expected = sorted(d for d, nbr in kg.neighbors(u) if nbr == v)
                        assert _listed_relations(pair, side, u, v) == expected
