import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadlab import (
    AdaptedProcess,
    EventTree,
    NullEventError,
    PredictableProcess,
    TreeError,
    conditional_expectation,
    ensure_adapted,
    ensure_predictable,
    load_market,
    load_tree,
    make_market,
    market_to_doc,
    one_step_drift,
)

from helpers import random_adapted, random_density, random_tree

F = Fraction


def chain(depth):
    entries = [(0, None, F(1))] + [(i, i - 1, F(1)) for i in range(1, depth + 1)]
    return EventTree.build([F(t) for t in range(depth + 1)], entries)


def binary():
    entries = [
        (0, None, F(1)),
        (1, 0, F(1, 3)), (2, 0, F(2, 3)),
        (3, 1, F(1, 2)), (4, 1, F(1, 2)), (5, 2, F(1, 4)), (6, 2, F(3, 4)),
    ]
    return EventTree.build([F(0), F(1), F(2)], entries)


class TestBuild:
    def test_basic_structure(self):
        tree = binary()
        assert tree.root == 0
        assert tree.leaves == (3, 4, 5, 6)
        assert tree.internal == (0, 1, 2)
        assert tree.horizon == 2
        assert tree.parent[5] == 2
        assert tree.children[0] == (1, 2)

    def test_nodes_sorted_by_depth_then_id(self):
        entries = [
            (0, None, F(1)),
            (7, 0, F(1, 2)), (3, 0, F(1, 2)),
            (1, 7, F(1)), (9, 3, F(1)),
        ]
        tree = EventTree.build([F(0), F(1), F(2)], entries)
        assert tree.nodes == (0, 3, 7, 1, 9)

    def test_duplicate_id_rejected(self):
        with pytest.raises(TreeError, match="duplicate"):
            EventTree.build([F(0), F(1)], [(0, None, F(1)), (1, 0, F(1)), (1, 0, F(1))])

    def test_root_must_be_zero(self):
        with pytest.raises(TreeError, match="root"):
            EventTree.build([F(0), F(1)], [(1, None, F(1)), (2, 1, F(1))])

    def test_missing_parent_rejected(self):
        with pytest.raises(TreeError, match="parent 9 does not exist"):
            EventTree.build([F(0), F(1)], [(0, None, F(1)), (1, 9, F(1))])

    def test_sibling_probabilities_must_sum_to_one(self):
        entries = [(0, None, F(1)), (1, 0, F(1, 2)), (2, 0, F(1, 3))]
        with pytest.raises(TreeError, match="sum to 5/6"):
            EventTree.build([F(0), F(1)], entries)

    def test_nonpositive_probability_rejected(self):
        entries = [(0, None, F(1)), (1, 0, F(0)), (2, 0, F(1))]
        with pytest.raises(TreeError, match="not positive"):
            EventTree.build([F(0), F(1)], entries)

    def test_ragged_leaves_rejected(self):
        entries = [(0, None, F(1)), (1, 0, F(1, 2)), (2, 0, F(1, 2)), (3, 1, F(1))]
        with pytest.raises(TreeError, match="leaf at depth"):
            EventTree.build([F(0), F(1), F(2)], entries)

    def test_times_must_match_depth_and_increase(self):
        with pytest.raises(TreeError, match="times"):
            EventTree.build([F(0)], [(0, None, F(1)), (1, 0, F(1))])
        with pytest.raises(TreeError, match="strictly increasing"):
            EventTree.build([F(1), F(1)], [(0, None, F(1)), (1, 0, F(1))])

    def test_error_collects_multiple_problems(self):
        entries = [(0, None, F(1)), (1, 0, F(1, 2)), (2, 0, F(1, 3))]
        try:
            EventTree.build([F(1), F(0)], entries)
        except TreeError as exc:
            assert len(exc.problems) == 2
        else:
            pytest.fail("expected TreeError")


    @pytest.mark.parametrize("par", [True, 1.0])
    def test_bool_or_float_parent_rejected(self, par):
        # this tree used to build with parent[2] = True (or 1.0), and
        # market_to_doc then wrote a document load_market refuses
        with pytest.raises(TreeError) as info:
            EventTree.build([0, 1, 2], [(0, None, 1), (1, 0, 1), (2, par, 1)])
        assert f"node 2: parent must be an integer id or null, got {par!r}" in info.value.problems

    @pytest.mark.parametrize("entries, problem", [
        pytest.param([(0, None, 1), (1, True, 1), (2, 1, 1)], "node 1: parent must be an integer id or null, got True",
                     id="bool-parent"),
        pytest.param([(0, None, 1), (-1, 0, 1), (2, -1, 1)], "node -1: ids must be nonnegative integers",
                     id="negative-id"),
    ])
    def test_refused_row_leaves_no_phantom_parent(self, entries, problem):
        # node 2's parent was refused, not missing: "node 2: parent 1 does
        # not exist" (or -1) used to follow the one real problem
        with pytest.raises(TreeError) as info:
            EventTree.build([0, 1, 2], entries)
        assert info.value.problems == [problem]

    def test_repeated_text_is_parsed_once(self):
        tree = EventTree.build(["0", "1"], [(0, None, "1"), (1, 0, "1/2"), (2, 0, "1/2")])
        assert tree.cond_prob[1] is tree.cond_prob[2]

    @given(st.lists(st.integers(1, 2), min_size=1, max_size=4), st.data())
    def test_every_built_tree_round_trips(self, widths, data):
        # a tree of len(widths) periods, each node having widths[d] children;
        # each parent id is given as an int, or as the bool or float of equal value
        entries, level, next_id = [(0, None, 1)], [0], 1
        for width in widths:
            kids = []
            for p in level:
                for _ in range(width):
                    spelled = data.draw(st.sampled_from([p, float(p)] + ([bool(p)] if p < 2 else [])))
                    entries.append((next_id, spelled, F(1, width)))
                    kids.append(next_id)
                    next_id += 1
            level = kids
        times = list(range(len(widths) + 1))
        if any(type(par) not in (int, type(None)) for _, par, _ in entries):
            with pytest.raises(TreeError, match="parent must be an integer id or null"):
                EventTree.build(times, entries)
            return
        tree = EventTree.build(times, entries)
        text = json.dumps(market_to_doc(make_market(tree, AdaptedProcess.constant(tree, 1), 0)))
        again = load_market(json.loads(text))
        assert again.tree == tree
        assert json.dumps(market_to_doc(again)) == text


class TestLoadTree:
    DOC = {
        "times": ["0", "1/2", "1"],
        "nodes": [
            {"id": 0, "parent": None, "prob": "1"},
            {"id": 1, "parent": 0, "prob": "1/3"},
            {"id": 2, "parent": 0, "prob": "2/3"},
            {"id": 3, "parent": 1, "prob": "1"},
            {"id": 4, "parent": 2, "prob": "1"},
        ],
    }

    def test_round_trip_values(self):
        tree = load_tree(self.DOC)
        assert tree.times == (F(0), F(1, 2), F(1))
        assert tree.cond_prob[2] == F(2, 3)

    def test_root_prob_defaults_to_one(self):
        doc = {"times": ["0"], "nodes": [{"id": 0, "parent": None}]}
        assert load_tree(doc).cond_prob[0] == 1

    def test_missing_keys(self):
        with pytest.raises(TreeError, match="missing 'times'"):
            load_tree({"nodes": []})

    def test_bad_rational_reported_with_node(self):
        doc = {"times": ["0", "1"], "nodes": [
            {"id": 0, "parent": None, "prob": "1"},
            {"id": 1, "parent": 0, "prob": "0.5"},
        ]}
        with pytest.raises(TreeError, match="node 1"):
            load_tree(doc)


class TestProcesses:
    def test_adapted_access(self):
        tree = chain(1)
        proc = AdaptedProcess({0: F(1), 1: F(2)})
        assert proc[1] == 2
        assert 1 in proc and 5 not in proc
        assert AdaptedProcess.constant(tree, F(3))[0] == 3

    def test_ensure_adapted_rejects_partial(self):
        tree = binary()
        with pytest.raises(ValueError, match="missing"):
            ensure_adapted(tree, AdaptedProcess({0: F(1)}), "prices")

    def test_predictable_requires_shared_sibling_values(self):
        tree = binary()
        good = PredictableProcess({0: F(1), 1: F(2), 2: F(2), 3: F(3), 4: F(3), 5: F(1), 6: F(1)})
        ensure_predictable(tree, good)
        bad = PredictableProcess({0: F(1), 1: F(2), 2: F(5), 3: F(3), 4: F(3), 5: F(1), 6: F(1)})
        with pytest.raises(ValueError, match="siblings"):
            ensure_predictable(tree, bad)


class TestConditionalExpectation:
    def test_chain_is_identity_free(self):
        tree = chain(2)
        proc = AdaptedProcess({0: F(0), 1: F(-1), 2: F(5)})
        assert conditional_expectation(tree, proc, None, 0, 2) == 5
        assert conditional_expectation(tree, proc, None, 1, 1) == -1

    def test_weighted_average(self):
        tree = binary()
        proc = AdaptedProcess({n: F(n) for n in tree.nodes})
        expected = F(1, 2) * 3 + F(1, 2) * 4
        assert conditional_expectation(tree, proc, None, 1, 2) == expected

    def test_density_reweights(self):
        tree = binary()
        proc = AdaptedProcess({n: F(n) for n in tree.nodes})
        density = AdaptedProcess({0: F(1), 1: F(3), 2: F(0), 3: F(4), 4: F(2), 5: F(0), 6: F(0)})
        # under Q the branch through node 2 has no mass
        got = conditional_expectation(tree, proc, density, 0, 2)
        q3 = F(1, 3) * F(1, 2) * 4
        q4 = F(1, 3) * F(1, 2) * 2
        assert got == (3 * q3 + 4 * q4) / (q3 + q4)

    def test_null_event_raises(self):
        tree = binary()
        proc = AdaptedProcess({n: F(1) for n in tree.nodes})
        density = AdaptedProcess({0: F(1), 1: F(3), 2: F(0), 3: F(4), 4: F(2), 5: F(0), 6: F(0)})
        with pytest.raises(NullEventError) as info:
            conditional_expectation(tree, proc, density, 2, 2)
        assert info.value.node == 2

    @pytest.mark.parametrize("node, horizon", [(0, 3), (1, 0)], ids=["past-the-leaves", "before-the-node"])
    def test_horizon_out_of_range_refused(self, node, horizon):
        tree = chain(2)
        proc = AdaptedProcess({0: F(0), 1: F(-1), 2: F(5)})
        with pytest.raises(ValueError) as info:
            conditional_expectation(tree, proc, None, node, horizon)
        assert str(info.value) == f"horizon {horizon} out of range [{node}, 2] for node {node}"

    def test_tower_property_exhaustive_small_trees(self):
        rng = random.Random(23)
        for _ in range(25):
            tree = random_tree(rng, max_depth=3)
            proc = random_adapted(rng, tree)
            density = random_density(rng, tree)
            for n in tree.nodes:
                d = tree.time_index[n]
                for h in range(d, tree.horizon + 1):
                    direct = conditional_expectation(tree, proc, density, n, h)
                    if h > d:
                        inner = AdaptedProcess({
                            m: conditional_expectation(tree, proc, density, m, h)
                            if tree.time_index[m] == h - 1 else proc[m]
                            for m in tree.nodes
                        })
                        nested = conditional_expectation(tree, inner, density, n, h - 1)
                        assert nested == direct


class TestDrift:
    def test_constant_process_has_zero_drift(self):
        tree = binary()
        drift = one_step_drift(tree, AdaptedProcess.constant(tree, F(7)))
        assert all(drift[n] == 0 for n in tree.nodes)

    def test_deterministic_dip_drifts(self):
        # prices 1, 1/2, 1 on a two-step path: drift -1/2 then +1/2
        tree = chain(2)
        proc = AdaptedProcess({0: F(1), 1: F(1, 2), 2: F(1)})
        drift = one_step_drift(tree, proc)
        assert drift[0] == F(-1, 2)
        assert drift[1] == F(1, 2)
        assert drift[2] == 0

    def test_density_vanishing_at_an_internal_node_raises(self):
        tree = binary()
        density = AdaptedProcess({0: F(1), 1: F(3), 2: F(0), 3: F(4), 4: F(2), 5: F(0), 6: F(0)})
        with pytest.raises(NullEventError) as info:
            one_step_drift(tree, AdaptedProcess.constant(tree, F(1)), density)
        assert info.value.node == 2

    def test_zero_drift_iff_martingale(self):
        rng = random.Random(37)
        for _ in range(40):
            tree = random_tree(rng)
            density = random_density(rng, tree)
            proc = random_adapted(rng, tree)
            drift = one_step_drift(tree, proc, density)
            flat = all(drift[n] == 0 for n in tree.internal)
            is_mart = all(
                conditional_expectation(tree, proc, density, n, h) == proc[n]
                for n in tree.nodes
                for h in range(tree.time_index[n], tree.horizon + 1)
            )
            assert flat == is_mart
