"""Tests for rule-path explanations."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kgalign import data
from kgalign.em import EmConfig, fuse_predictions, run_em
from kgalign.embedder import Origin
from kgalign.explain import (
    AnchorMode,
    AnchorSet,
    RuleExplanation,
    bfs_reachable,
    explain,
    hard_anchors,
    render_report,
    soft_anchors,
)
from kgalign.graph import KnowledgeGraphPair, load_graph
from kgalign.symbolic import compute_functionalities

import oracles
from conftest import matched_psub, pack_direction, psub_dicts, random_pair, random_psub


def fwd(r: int) -> int:
    return pack_direction(r, False)


def inv(r: int) -> int:
    return pack_direction(r, True)


class TestBfsReachable:
    def test_chain_two_steps(self):
        kg = load_graph([("a", "r", "b"), ("b", "r", "c")])
        got = bfs_reachable(kg, kg.entity_ids["a"], max_len=2)
        a, b, c = kg.entity_ids["a"], kg.entity_ids["b"], kg.entity_ids["c"]
        assert got == {
            b: ((inv(0), a),),
            c: ((inv(0), b), (inv(0), a)),
        }

    def test_chain_one_step(self):
        kg = load_graph([("a", "r", "b"), ("b", "r", "c")])
        got = bfs_reachable(kg, kg.entity_ids["a"], max_len=1)
        assert set(got) == {kg.entity_ids["b"]}

    def test_diamond_keeps_first_discovered(self):
        kg = load_graph(
            [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "d"), ("c", "r", "d")]
        )
        got = bfs_reachable(kg, kg.entity_ids["a"], max_len=2)
        ids = kg.entity_ids
        # b was interned before c, so the b route wins the tie
        assert got[ids["d"]] == ((inv(0), ids["b"]), (inv(0), ids["a"]))

    def test_inverse_steps_traversed(self):
        kg = load_graph([("child", "parent_of", "root")])
        got = bfs_reachable(kg, kg.entity_ids["root"], max_len=1)
        assert got == {kg.entity_ids["child"]: ((fwd(0), kg.entity_ids["root"]),)}

    def test_start_not_reported(self):
        kg = load_graph([("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a")])
        got = bfs_reachable(kg, kg.entity_ids["a"], max_len=3)
        assert kg.entity_ids["a"] not in got

    def test_unknown_entity(self):
        kg = load_graph([("a", "r", "b")])
        with pytest.raises(KeyError):
            bfs_reachable(kg, 99, max_len=1)

    def test_bad_bound(self):
        kg = load_graph([("a", "r", "b")])
        with pytest.raises(ValueError, match="length bound"):
            bfs_reachable(kg, 0, max_len=0)

    def test_paths_walk_real_edges(self, rng):
        for _ in range(30):
            pair = random_pair(rng, n_entities=9, n_relations=3, n_triples=20)
            kg = pair.source
            e = int(rng.integers(kg.n_entities))
            found = bfs_reachable(kg, e, max_len=3)
            for end, path in found.items():
                node = end
                for k, (rel, nbr) in enumerate(path):
                    assert (rel, nbr) in list(kg.neighbors(node))
                    # every non-empty suffix of a reported path is itself reported
                    assert nbr == e or found[nbr] == path[k + 1 :]
                    node = nbr
                assert node == e

    def test_matches_neighbor_list_loop(self, rng):
        # self-loops, parallel edges and isolated ids included
        for _ in range(25):
            n = int(rng.integers(2, 14))
            records = [
                (f"e{rng.integers(n)}", f"r{rng.integers(3)}", f"e{rng.integers(n)}")
                for _ in range(int(rng.integers(1, 3 * n)))
            ]
            kg = load_graph(records)
            for e in range(kg.n_entities):
                for max_len in range(1, 5):
                    expected = {
                        end: oracles.loop_reverse(path, e)
                        for end, path in oracles.loop_bfs_reachable(kg, e, max_len).items()
                    }
                    assert bfs_reachable(kg, e, max_len) == expected


def hop_fixture(hops: int):
    """Source and target chains of the given length with matched names."""
    src = load_graph([(f"s{i}", "r", f"s{i + 1}") for i in range(hops)])
    tgt = load_graph([(f"t{i}", "r'", f"t{i + 1}") for i in range(hops)])
    pair = KnowledgeGraphPair(source=src, target=tgt)
    psub = matched_psub(src, tgt, {0: 0}, 0.8)
    return pair, psub


class TestPathConfidence:
    def test_single_hop(self):
        pair, psub = hop_fixture(1)
        eta_s = compute_functionalities(pair.source)
        eta_t = compute_functionalities(pair.target)
        anchors = hard_anchors([(pair.source.entity_ids["s1"], pair.target.entity_ids["t1"])])
        got = explain(
            pair,
            (pair.source.entity_ids["s0"], pair.target.entity_ids["t0"]),
            anchors,
            eta_s,
            eta_t,
            psub,
            max_len=2,
        )
        assert len(got) == 1
        assert got[0].confidence == pytest.approx(0.8, abs=1e-15)
        assert got[0].source_path == ((inv(0), pair.source.entity_ids["s0"]),)

    def test_two_hops(self):
        pair, psub = hop_fixture(2)
        eta_s = compute_functionalities(pair.source)
        eta_t = compute_functionalities(pair.target)
        anchors = hard_anchors([(pair.source.entity_ids["s2"], pair.target.entity_ids["t2"])])
        got = explain(
            pair,
            (pair.source.entity_ids["s0"], pair.target.entity_ids["t0"]),
            anchors,
            eta_s,
            eta_t,
            psub,
            max_len=2,
        )
        assert len(got) == 1
        assert got[0].confidence == pytest.approx(0.64, abs=1e-15)
        # the depth-2 anchor's parent s1 is no anchor; its path still ends the anchor's
        ids = pair.source.entity_ids
        assert got[0].source_path == ((inv(0), ids["s1"]), (inv(0), ids["s0"]))


def mirrored_pair(records: list[tuple[str, str, str]]) -> KnowledgeGraphPair:
    """The source graph of ``records`` and a target copy with primed labels."""
    src = load_graph(records)
    tgt = load_graph([(h + "'", r + "'", t + "'") for h, r, t in records])
    return KnowledgeGraphPair(source=src, target=tgt)


# (triples, anchor labels, max_len, {anchor: source path as (relation, entity) labels})
SHARED_SUFFIX_CASES = {
    "siblings-share-parent": (
        [("q", "r", "m"), ("m", "r", "a"), ("m", "s", "b")],
        ["a", "b"],
        2,
        {"a": [("r^-1", "m"), ("r^-1", "q")], "b": [("s^-1", "m"), ("r^-1", "q")]},
    ),
    "query-self-loop": (
        [("q", "r", "q"), ("q", "s", "a"), ("a", "r", "b")],
        ["a", "b"],
        2,
        {"a": [("s^-1", "q")], "b": [("r^-1", "a"), ("s^-1", "q")]},
    ),
    "depth-3-unexplained-parent": (
        [("q", "r", "x"), ("x", "s", "y"), ("y", "r", "a"), ("y", "s", "c")],
        ["x", "a", "c"],
        3,
        {
            "x": [("r^-1", "q")],
            "a": [("r^-1", "y"), ("s^-1", "x"), ("r^-1", "q")],
            "c": [("s^-1", "y"), ("s^-1", "x"), ("r^-1", "q")],
        },
    ),
}


class TestExplain:
    @pytest.mark.parametrize("case", sorted(SHARED_SUFFIX_CASES))
    def test_shared_suffix_cases(self, case):
        records, anchor_labels, max_len, expected = SHARED_SUFFIX_CASES[case]
        pair = mirrored_pair(records)
        src, tgt = pair.source, pair.target
        psub = matched_psub(src, tgt, {r: r for r in range(src.n_relations)}, 0.9)
        eta_s, eta_t = compute_functionalities(src), compute_functionalities(tgt)
        anchor_pairs = [(src.entity_ids[a], tgt.entity_ids[a + "'"]) for a in anchor_labels]
        query = (src.entity_ids["q"], tgt.entity_ids["q'"])
        got = explain(pair, query, hard_anchors(anchor_pairs), eta_s, eta_t, psub, max_len)
        assert got == oracles.loop_explain(pair, query, anchor_pairs, eta_s, eta_t, psub, max_len)

        def labelled(kg, path):
            return [(kg.directed_label(d), kg.entity_labels[e]) for d, e in path]

        assert {src.entity_labels[ex.anchor[0]]: labelled(src, ex.source_path) for ex in got} == expected
        # the primed copy interns its labels in the same order, so its ids match
        assert all(ex.target_path == ex.source_path for ex in got)

    def test_empty_anchor_set(self):
        pair, psub = hop_fixture(1)
        got = explain(
            pair,
            (0, 0),
            AnchorSet(pairs=(), mode=AnchorMode.HARD),
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            psub,
            max_len=2,
        )
        assert got == []

    def test_unreachable_anchor_skipped(self):
        src = load_graph([("a", "r", "b"), ("far", "r", "farther")])
        tgt = load_graph([("a'", "r'", "b'"), ("far'", "r'", "farther'")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        psub = matched_psub(src, tgt, {0: 0})
        got = explain(
            pair,
            (src.entity_ids["a"], tgt.entity_ids["a'"]),
            hard_anchors([(src.entity_ids["far"], tgt.entity_ids["far'"])]),
            compute_functionalities(src),
            compute_functionalities(tgt),
            psub,
            max_len=3,
        )
        assert got == []

    def test_mismatched_depths_dropped(self):
        # anchor is one hop away on the source side, two on the target
        src = load_graph([("a", "r", "n")])
        tgt = load_graph([("a'", "r'", "mid"), ("mid", "r'", "n'")])
        pair = KnowledgeGraphPair(source=src, target=tgt)
        psub = matched_psub(src, tgt, {0: 0})
        got = explain(
            pair,
            (src.entity_ids["a"], tgt.entity_ids["a'"]),
            hard_anchors([(src.entity_ids["n"], tgt.entity_ids["n'"])]),
            compute_functionalities(src),
            compute_functionalities(tgt),
            psub,
            max_len=2,
        )
        assert got == []

    def test_sorted_by_confidence_then_anchor(self, rng):
        for _ in range(20):
            pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
            psub = random_psub(rng, pair, density=0.8)
            anchors = hard_anchors(
                [(i, i) for i in range(min(pair.source.n_entities, pair.target.n_entities))
                 if i != 0]
            )
            got = explain(
                pair,
                (0, 0),
                anchors,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                max_len=2,
            )
            keys = [(-ex.confidence, ex.anchor, ex.source_path, ex.target_path) for ex in got]
            assert keys == sorted(keys)
            assert all(ex.confidence > 0.0 for ex in got)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_order_matches_base_direction_tuples(self, rng, exhaustive):
        # packed ids sort as the (base, inverse) pairs they encode
        def steps(path):
            return [(d >> 1, d & 1, e) for d, e in path]

        def order(ex):
            return -ex.confidence, ex.anchor, steps(ex.source_path), steps(ex.target_path)

        ranked = 0
        for _ in range(30):
            pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
            psub = random_psub(rng, pair, density=0.8)
            query = (int(rng.integers(8)), int(rng.integers(8)))
            anchors = hard_anchors([(i, (i + 1) % 8) for i in range(8) if i != query[0]])
            got = explain(
                pair,
                query,
                anchors,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                max_len=2,
                exhaustive=exhaustive,
            )
            assert got == sorted(got, key=order)
            ranked += len(got) > 1
        assert ranked > 0

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("max_len", [0, -1])
    def test_bad_bound_rejected(self, exhaustive, max_len):
        pair, psub = hop_fixture(1)
        eta_s, eta_t = compute_functionalities(pair.source), compute_functionalities(pair.target)
        with pytest.raises(ValueError, match="path length bound must be >= 1"):
            explain(pair, (0, 0), hard_anchors([(1, 1)]), eta_s, eta_t, psub, max_len, exhaustive)

    def test_confidence_recomputable_from_chains(self, rng):
        # flipping a stored anchor-to-query path back into query order
        # must reproduce the confidence through the dense rule oracle
        for _ in range(25):
            pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
            psub = random_psub(rng, pair, density=0.8)
            anchors = hard_anchors([(i, i) for i in range(1, 6)])
            got = explain(
                pair,
                (0, 0),
                anchors,
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                max_len=2,
            )
            for ex in got:
                src_chain = [d ^ 1 for d, _ in reversed(ex.source_path)]
                tgt_chain = [d ^ 1 for d, _ in reversed(ex.target_path)]
                expected = oracles.rule_confidence(
                    pair,
                    src_chain,
                    tgt_chain,
                    *psub_dicts(psub),
                )
                np.testing.assert_allclose(ex.confidence, expected, atol=1e-13, rtol=0)

    def test_paths_start_at_anchor_and_end_at_query(self, rng):
        for _ in range(20):
            pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
            psub = random_psub(rng, pair, density=0.8)
            got = explain(
                pair,
                (0, 0),
                hard_anchors([(i, i) for i in range(1, 6)]),
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
                max_len=3,
            )
            for ex in got:
                for kg, path, start, end in (
                    (pair.source, ex.source_path, ex.anchor[0], 0),
                    (pair.target, ex.target_path, ex.anchor[1], 0),
                ):
                    node = start
                    for rel, nbr in path:
                        assert (rel, nbr) in list(kg.neighbors(node))
                        node = nbr
                    assert node == end

    def test_exhaustive_is_superset(self, rng):
        for _ in range(10):
            pair = random_pair(rng, n_entities=7, n_relations=2, n_triples=14)
            psub = random_psub(rng, pair, density=0.8)
            args = (
                pair,
                (0, 0),
                hard_anchors([(i, i) for i in range(1, 5)]),
                compute_functionalities(pair.source),
                compute_functionalities(pair.target),
                psub,
            )
            short = explain(*args, max_len=2)
            full = explain(*args, max_len=2, exhaustive=True)
            short_set = {(ex.anchor, ex.source_path, ex.target_path) for ex in short}
            full_set = {(ex.anchor, ex.source_path, ex.target_path) for ex in full}
            assert short_set <= full_set

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_matches_all_anchor_loop(self, rng, exhaustive):
        # sparse graphs leave most anchors unreachable, or reachable on one side only
        one_sided = explained = 0
        for _ in range(60):
            pair = random_pair(rng, n_entities=30, n_relations=3, n_triples=28)
            psub = random_psub(rng, pair, density=0.8)
            eta_s = compute_functionalities(pair.source)
            eta_t = compute_functionalities(pair.target)
            query = (int(rng.integers(30)), int(rng.integers(30)))
            targets = rng.permutation(30)
            anchor_pairs = [(s, int(targets[s])) for s in range(30) if s != query[0]]
            anchor_pairs = [anchor_pairs[i] for i in rng.permutation(len(anchor_pairs))]
            anchors = AnchorSet(pairs=tuple(anchor_pairs), mode=AnchorMode.SOFT)
            max_len = int(rng.integers(1, 4))
            got = explain(pair, query, anchors, eta_s, eta_t, psub, max_len, exhaustive)
            expected = oracles.loop_explain(
                pair, query, anchor_pairs, eta_s, eta_t, psub, max_len, exhaustive
            )
            assert got == expected
            src_seen = bfs_reachable(pair.source, query[0], max_len)
            tgt_seen = bfs_reachable(pair.target, query[1], max_len)
            one_sided += sum((a in src_seen) != (b in tgt_seen) for a, b in anchor_pairs)
            explained += bool(got)
        assert one_sided > 0 and explained > 0

    def test_deterministic(self, rng):
        pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
        psub = random_psub(rng, pair, density=0.8)
        args = (
            pair,
            (0, 0),
            hard_anchors([(i, i) for i in range(1, 6)]),
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            psub,
        )
        assert explain(*args, max_len=2) == explain(*args, max_len=2)


class TestRuleExplanation:
    record = RuleExplanation((0, 1), ((2, 3),), ((4, 5),), 0.5)

    def test_fields_in_order(self):
        assert RuleExplanation._fields == ("anchor", "source_path", "target_path", "confidence")
        assert tuple(self.record) == ((0, 1), ((2, 3),), ((4, 5),), 0.5)
        assert self.record.anchor == (0, 1) and self.record.confidence == 0.5

    @pytest.mark.parametrize("field", ["anchor", "source_path", "target_path", "confidence"])
    def test_assignment_raises(self, field):
        with pytest.raises(AttributeError):
            setattr(self.record, field, None)

    def test_hashable(self):
        twin = RuleExplanation((0, 1), ((2, 3),), ((4, 5),), 0.5)
        assert hash(twin) == hash(self.record)
        assert {self.record, twin} == {self.record}


class TestAnchorSets:
    def test_one_to_one_enforced(self):
        with pytest.raises(ValueError, match="one-to-one"):
            AnchorSet(pairs=((0, 0), (0, 1)), mode=AnchorMode.HARD)

    def test_soft_extends_hard(self):
        seeds = [(0, 0), (1, 1)]
        inferred = [(2, 2), (3, 3)]
        soft = soft_anchors(seeds, inferred)
        assert set(seeds) <= set(soft.pairs)
        assert set(inferred) <= set(soft.pairs)
        assert soft.mode is AnchorMode.SOFT

    def test_soft_seeds_win_conflicts(self):
        soft = soft_anchors([(0, 0)], [(0, 5), (1, 0), (2, 2)])
        assert soft.by_source[0] == 0
        assert 1 not in soft.by_source
        assert soft.by_source[2] == 2

    def test_by_source_is_a_copy(self):
        anchors = hard_anchors([(0, 1), (2, 3)])
        anchors.by_source[0] = 9
        assert anchors.by_source == {0: 1, 2: 3}

    def test_hard_mode_tag(self):
        anchors = hard_anchors([(1, 1), (0, 0)])
        assert anchors.mode is AnchorMode.HARD
        assert anchors.pairs == ((0, 0), (1, 1))


class TestRenderReport:
    def test_report_shape(self):
        pair, psub = hop_fixture(2)
        eta_s = compute_functionalities(pair.source)
        eta_t = compute_functionalities(pair.target)
        got = explain(
            pair,
            (pair.source.entity_ids["s0"], pair.target.entity_ids["t0"]),
            hard_anchors([(pair.source.entity_ids["s2"], pair.target.entity_ids["t2"])]),
            eta_s,
            eta_t,
            psub,
            max_len=2,
        )
        text = render_report(
            pair,
            (pair.source.entity_ids["s0"], pair.target.entity_ids["t0"]),
            got,
            AnchorMode.HARD,
        )
        lines = text.splitlines()
        assert lines[0] == "query\ts0\tt0\tmode=hard"
        assert lines[1].startswith("0.6400\t")
        assert "r^-1 ∧ r^-1" in lines[1]
        assert lines[1].endswith("anchor=s2|t2")

    def test_no_rules_fallback(self):
        pair, _ = hop_fixture(1)
        text = render_report(pair, (0, 0), [], AnchorMode.SOFT)
        assert "mode=soft" in text
        assert "(no supporting rules)" in text

    def test_limit_truncates(self, rng):
        pair = random_pair(rng, n_entities=8, n_relations=3, n_triples=18)
        psub = random_psub(rng, pair, density=0.9)
        got = explain(
            pair,
            (0, 0),
            hard_anchors([(i, i) for i in range(1, 6)]),
            compute_functionalities(pair.source),
            compute_functionalities(pair.target),
            psub,
            max_len=2,
        )
        if len(got) > 1:
            text = render_report(pair, (0, 0), got, AnchorMode.HARD, limit=1)
            assert len(text.splitlines()) == 2


BENCH_GENERATORS = Path(__file__).resolve().parents[1] / "bench" / "generators.py"


def _noisy_run(tmp_path_factory, symbolic_only: bool):
    """A run on the bench generator's noisy 1k pair at 20% seeds.

    ``bench/generators.py`` is loaded read-only as a fresh module.
    Returns the pair, the held-out queries, both anchor sets, the final
    state and the fused binary set.
    """
    if not BENCH_GENERATORS.is_file():
        pytest.skip("bench/generators.py not present")
    spec = importlib.util.spec_from_file_location("kgalign_bench_generators", BENCH_GENERATORS)
    generators = importlib.util.module_from_spec(spec)
    directory = tmp_path_factory.mktemp("noisy-1k")
    with pytest.MonkeyPatch.context() as mp:
        # dataclasses look their module up while the file executes
        mp.setitem(sys.modules, spec.name, generators)
        spec.loader.exec_module(generators)
        generators.write_dataset(generators.noisy_pair(407, 1000, 10, 3000), directory)
    bundle = data.load_dataset(directory)
    train, valid, test = data.split_seed(bundle.links, 0.20, 0.05, 407)
    config = EmConfig(seed=407, symbolic_only=symbolic_only)
    state = run_em(bundle.pair, train, config, validation=valid)
    fused = fuse_predictions(state, config)
    anchors = {
        AnchorMode.HARD: hard_anchors(train.pairs),
        AnchorMode.SOFT: soft_anchors(train.pairs, [(s, t) for s, t, _, _ in fused.binary]),
    }
    return bundle.pair, test.pairs, anchors, state, fused.binary


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    """A symbolic-only run on the noisy 1k pair."""
    return _noisy_run(tmp_path_factory, symbolic_only=True)


@pytest.fixture(scope="module")
def joint_noisy_run(tmp_path_factory):
    """A joint-mode run on the noisy 1k pair: soft anchors hold neural pairs too."""
    return _noisy_run(tmp_path_factory, symbolic_only=False)


def assert_matches_loop(run, mode: AnchorMode) -> None:
    """``explain`` equals the all-anchor loop, report and all, on every
    held-out query of the run."""
    pair, queries, anchors, state, _ = run
    args = (state.eta_source, state.eta_target, state.psub, 2)
    anchor_set = anchors[mode]
    explained = two_hop = 0
    for query in queries:
        got = explain(pair, query, anchor_set, *args)
        expected = oracles.loop_explain(pair, query, anchor_set.pairs, *args)
        assert got == expected, query
        assert render_report(pair, query, got, mode) == render_report(pair, query, expected, mode)
        explained += bool(got)
        two_hop += any(len(ex.source_path) == 2 for ex in got)
    # nearly every query has rules, and most of them need two-step paths
    assert explained > 0.9 * len(queries) and two_hop > len(queries) / 2


class TestMatchesLoopAtScale:
    @pytest.mark.parametrize("mode", [AnchorMode.HARD, AnchorMode.SOFT])
    def test_every_held_out_query(self, noisy_run, mode):
        assert_matches_loop(noisy_run, mode)

    @pytest.mark.parametrize("mode", [AnchorMode.HARD, AnchorMode.SOFT])
    def test_joint_run_every_held_out_query(self, joint_noisy_run, mode):
        *_, binary = joint_noisy_run
        assert any(origin is Origin.NEURAL for *_, origin in binary)
        assert_matches_loop(joint_noisy_run, mode)

    def test_exhaustive_queries(self, noisy_run):
        pair, queries, anchors, state, _ = noisy_run
        args = (state.eta_source, state.eta_target, state.psub, 2)
        anchor_set = anchors[AnchorMode.SOFT]
        ranked = 0
        for query in queries[:40]:
            got = explain(pair, query, anchor_set, *args, exhaustive=True)
            assert got == oracles.loop_explain(pair, query, anchor_set.pairs, *args, exhaustive=True)
            ranked += len(got) > 1
        assert ranked > 30
