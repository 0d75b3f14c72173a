"""Tests for the indexed graph model and seed handling."""

from __future__ import annotations

import numpy as np
import pytest

from kgalign.graph import (
    AlignmentSeed,
    DirectedRelation,
    IngestError,
    KnowledgeGraphPair,
    SeedRole,
    flip_packed,
    load_graph,
    pack_direction,
    unpack_direction,
    validate_seed_sets,
)

from conftest import random_graph


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
        assert [(rel.base, nbr) for rel, nbr in edges if not rel.inverse] == [(s, c)]
        assert [(rel.base, nbr) for rel, nbr in edges if rel.inverse] == [(r, a)]

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
        assert kg.neighbors(0) == [(DirectedRelation(0, False), 0), (DirectedRelation(0, True), 0)]


class TestNeighbors:
    def test_forward_edge(self):
        kg = load_graph([("a", "r", "b")])
        assert kg.neighbors(kg.entity_ids["a"]) == [(DirectedRelation(0, False), kg.entity_ids["b"])]

    def test_inverse_edge(self):
        kg = load_graph([("a", "r", "b")])
        assert kg.neighbors(kg.entity_ids["b"]) == [(DirectedRelation(0, True), kg.entity_ids["a"])]

    def test_two_inverse_edges_ordered(self):
        kg = load_graph([("a", "r", "b"), ("c", "r", "b")])
        a, b, c = (kg.entity_ids[x] for x in "abc")
        assert kg.neighbors(b) == [
            (DirectedRelation(0, True), a),
            (DirectedRelation(0, True), c),
        ]

    def test_unknown_entity(self):
        kg = load_graph([("a", "r", "b")])
        with pytest.raises(KeyError):
            kg.neighbors(99)

    def test_degree_sum_property(self, rng):
        for _ in range(50):
            kg = random_graph(rng, 8, 3, 15)
            for e in range(kg.n_entities):
                out_deg = sum(1 for h, _, _ in kg.triples if h == e)
                in_deg = sum(1 for _, _, t in kg.triples if t == e)
                assert len(kg.neighbors(e)) == out_deg + in_deg


class TestDirectedRelation:
    def test_flip_involution(self):
        d = DirectedRelation(3, False)
        assert d.flip().flip() == d
        assert d.flip().inverse

    def test_pack_unpack_roundtrip(self, rng):
        for _ in range(200):
            base = int(rng.integers(0, 500))
            inv = bool(rng.integers(0, 2))
            packed = pack_direction(base, inv)
            assert unpack_direction(packed) == DirectedRelation(base, inv)
            assert flip_packed(packed) == pack_direction(base, not inv)

    def test_directed_label(self):
        kg = load_graph([("a", "spouse", "b")])
        assert kg.directed_label(pack_direction(0, False)) == "spouse"
        assert kg.directed_label(pack_direction(0, True)) == "spouse^-1"


class TestRoundTrip:
    def test_triple_records_roundtrip(self, rng):
        for _ in range(25):
            kg = random_graph(rng, 10, 4, 30)
            again = load_graph(kg.triple_records())
            assert set(again.triple_records()) == set(kg.triple_records())
            assert again.n_triples == kg.n_triples


class TestSeeds:
    def test_lookup_both_ways(self):
        seed = AlignmentSeed(pairs=((0, 5), (1, 7)), role=SeedRole.TRAIN)
        assert seed.by_source[1] == 7
        assert seed.by_target[7] == 1
        assert len(seed) == 2

    def test_train_one_to_one_enforced(self):
        train = AlignmentSeed(pairs=((0, 5), (0, 6)), role=SeedRole.TRAIN)
        empty_v = AlignmentSeed(pairs=(), role=SeedRole.VALIDATION)
        empty_t = AlignmentSeed(pairs=(), role=SeedRole.TEST)
        with pytest.raises(IngestError, match="one-to-one"):
            validate_seed_sets(train, empty_v, empty_t)

    def test_disjointness_enforced(self):
        train = AlignmentSeed(pairs=((0, 5),), role=SeedRole.TRAIN)
        valid = AlignmentSeed(pairs=((0, 5),), role=SeedRole.VALIDATION)
        test = AlignmentSeed(pairs=((2, 9),), role=SeedRole.TEST)
        with pytest.raises(IngestError, match="overlap"):
            validate_seed_sets(train, valid, test)


class TestEdgeRelations:
    def test_both_directions_present(self):
        src = load_graph([("a", "r", "b")])
        tgt = load_graph([("x", "s", "y")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        edges = pair.edge_relations("source")
        a, b = src.entity_ids["a"], src.entity_ids["b"]
        assert edges[(a, b)] == (pack_direction(0, False),)
        assert edges[(b, a)] == (pack_direction(0, True),)

    def test_cache_stable(self, rng):
        pair = KnowledgeGraphPair(
            source=random_graph(rng, 6, 2, 10), target=random_graph(rng, 6, 2, 10)
        )
        assert pair.edge_relations("target") is pair.edge_relations("target")
