import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit.aggregators import AggregatorState, FedAvgAggregator
from fedkit.errors import DisconnectedNodeWarning, InvalidTopology, MissingLeafUpdate
from fedkit.params import ModelUpdate, ParameterSet, weighted_sum, zeros_like
from fedkit.topology import NeighborGraph, TreeTopology, dfl_round, hier_round


def rand_params(rng, shape=(4, 3)):
    return ParameterSet(
        {"W0": rng.normal(size=shape), "b0": rng.normal(size=shape[1])}
    )


def leaf_update(cid, params, count):
    return ModelUpdate(cid, params, False, count, 1, 0, None)


def flat_oracle(updates):
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    return weighted_sum([u.params for u in updates], counts / counts.sum())


class TestTreeStructure:
    def test_two_roots_rejected(self):
        with pytest.raises(InvalidTopology):
            TreeTopology({"a": None, "b": None, "c": "a"})

    def test_no_root_rejected(self):
        with pytest.raises(InvalidTopology):
            TreeTopology({"a": "b", "b": "a"})

    def test_unknown_parent_rejected(self):
        with pytest.raises(InvalidTopology):
            TreeTopology({"root": None, "x": "ghost"})

    def test_cycle_rejected(self):
        with pytest.raises(InvalidTopology):
            TreeTopology({"root": None, "a": "b", "b": "a"})

    def test_star_shape(self):
        t = TreeTopology({"s": None, "c1": "s", "c0": "s"})
        assert t.root == "s"
        assert t.leaves == ("c0", "c1")
        assert t.internal_nodes == ("s",)
        assert t.depth() == 2


def two_tier_tree():
    """Nine leaves under five relays under one root."""
    parent = {"root": None}
    for i in range(5):
        parent[f"mid{i}"] = "root"
    # uneven fan-out: 2+2+2+2+1 leaves
    assignments = ["mid0", "mid0", "mid1", "mid1", "mid2", "mid2", "mid3", "mid3", "mid4"]
    for i, mid in enumerate(assignments):
        parent[f"leaf{i}"] = mid
    return TreeTopology(parent)


class TestHierRound:
    def test_equal_counts_two_level_equals_plain_mean(self):
        t = TreeTopology({"s": None, "a": "s", "b": "s"})
        pa = ParameterSet({"w": np.array([2.0, 4.0])})
        pb = ParameterSet({"w": np.array([6.0, 0.0])})
        out = hier_round(t, {"a": leaf_update("a", pa, 10), "b": leaf_update("b", pb, 10)})
        np.testing.assert_array_equal(out["w"], [4.0, 2.0])

    def test_single_leaf_passthrough(self):
        t = TreeTopology({"root": None, "leaf": "root"})
        p = ParameterSet({"w": np.array([1.5, -2.5])})
        out = hier_round(t, {"leaf": leaf_update("leaf", p, 3)})
        assert out == p

    def test_nine_leaf_tree_matches_flat_weighted_average(self):
        t = two_tier_tree()
        rng = np.random.default_rng(7)
        updates = {
            leaf: leaf_update(leaf, rand_params(rng), int(rng.integers(1, 100)))
            for leaf in t.leaves
        }
        got = hier_round(t, updates)
        want = flat_oracle([updates[leaf] for leaf in t.leaves])
        for name in want.names:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-9, atol=1e-12)

    def test_missing_leaf_update(self):
        t = two_tier_tree()
        rng = np.random.default_rng(0)
        updates = {leaf: leaf_update(leaf, rand_params(rng), 5) for leaf in t.leaves}
        del updates["leaf3"]
        with pytest.raises(MissingLeafUpdate):
            hier_round(t, updates)

    @settings(max_examples=50, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_tree_shape_equals_flat_average(self, n_nodes, seed):
        rng = np.random.default_rng(seed)
        parent = {"n0": None}
        for i in range(1, n_nodes):
            parent[f"n{i}"] = f"n{int(rng.integers(0, i))}"
        t = TreeTopology(parent)
        updates = {
            leaf: leaf_update(leaf, rand_params(rng), int(rng.integers(1, 60)))
            for leaf in t.leaves
        }
        got = hier_round(t, updates)
        want = flat_oracle([updates[leaf] for leaf in t.leaves])
        for name in want.names:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-9, atol=1e-12)


class TestGraphStructure:
    def test_self_loop_rejected(self):
        with pytest.raises(InvalidTopology):
            NeighborGraph(["a", "b"], [("a", "a")])

    def test_unknown_node_rejected(self):
        with pytest.raises(InvalidTopology):
            NeighborGraph(["a", "b"], [("a", "zz")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidTopology):
            NeighborGraph(["a", "a"], [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidTopology):
            NeighborGraph(["a", "b"], [("a", "b")], {("a", "b"): 0.0})

    def test_isolated_node_warns(self):
        with pytest.warns(DisconnectedNodeWarning):
            NeighborGraph(["a", "b", "c"], [("a", "b")])

    def test_complete_and_ring_builders(self):
        g = NeighborGraph.complete(["a", "b", "c", "d"])
        assert all(g.degree(n) == 3 for n in g.nodes)
        r = NeighborGraph.ring(["a", "b", "c", "d", "e"])
        assert all(r.degree(n) == 2 for n in r.nodes)
        with pytest.raises(InvalidTopology):
            NeighborGraph.ring(["a", "b"])


def prism_graph():
    """Six nodes, all degree 3: a ring plus three crossing chords."""
    ns = [f"n{i}" for i in range(6)]
    edges = [(ns[i], ns[(i + 1) % 6]) for i in range(6)]
    edges += [(ns[0], ns[3]), (ns[1], ns[4]), (ns[2], ns[5])]
    return NeighborGraph(ns, edges)


class TestDflRound:
    def test_identical_models_are_a_fixed_point(self):
        g = prism_graph()
        rng = np.random.default_rng(3)
        p = rand_params(rng)
        out = dfl_round(g, {n: p for n in g.nodes})
        # degree 3 everywhere: weights are exact quarters, so bit-exact
        assert all(out[n] == p for n in g.nodes)

    def test_complete_graph_matches_equal_weight_aggregation(self):
        nodes = ["n0", "n1", "n2", "n3"]
        g = NeighborGraph.complete(nodes)
        rng = np.random.default_rng(11)
        models = {n: rand_params(rng) for n in nodes}
        out = dfl_round(g, models)
        state = AggregatorState(global_params=zeros_like(models["n0"]), epoch=0)
        FedAvgAggregator().apply(state, [leaf_update(n, models[n], 17) for n in nodes])
        for n in nodes:
            for name in state.global_params.names:
                np.testing.assert_allclose(
                    out[n][name], state.global_params[name], rtol=0, atol=1e-12
                )

    def test_outputs_respect_elementwise_input_bounds(self):
        g = prism_graph()
        rng = np.random.default_rng(5)
        models = {n: rand_params(rng) for n in g.nodes}
        out = dfl_round(g, models)
        for name in models["n0"].names:
            stack = np.stack([models[n][name] for n in g.nodes])
            lo, hi = stack.min(axis=0), stack.max(axis=0)
            for n in g.nodes:
                assert np.all(out[n][name] >= lo - 1e-12)
                assert np.all(out[n][name] <= hi + 1e-12)

    def test_isolated_node_keeps_own_model(self):
        with pytest.warns(DisconnectedNodeWarning):
            g = NeighborGraph(["a", "b", "c"], [("a", "b")])
        rng = np.random.default_rng(9)
        models = {n: rand_params(rng) for n in g.nodes}
        out = dfl_round(g, models)
        assert out["c"] == models["c"]
        assert out["a"] != models["a"]

    def test_missing_model_rejected(self):
        g = NeighborGraph.complete(["a", "b", "c"])
        rng = np.random.default_rng(1)
        with pytest.raises(MissingLeafUpdate):
            dfl_round(g, {"a": rand_params(rng), "b": rand_params(rng)})

    def test_edge_weights_bias_the_mix(self):
        g = NeighborGraph(["a", "b", "c"], [("a", "b"), ("a", "c")], {("a", "b"): 3.0})
        models = {
            "a": ParameterSet({"w": np.array([0.0])}),
            "b": ParameterSet({"w": np.array([10.0])}),
            "c": ParameterSet({"w": np.array([10.0])}),
        }
        out = dfl_round(g, models)
        # node a: masses self 1, b 3, c 1 -> (0 + 30 + 10) / 5
        assert out["a"]["w"][0] == pytest.approx(8.0)

    def test_repeated_rounds_reach_consensus_on_a_ring(self):
        g = NeighborGraph.ring([f"n{i}" for i in range(6)])
        rng = np.random.default_rng(21)
        models = {n: rand_params(rng) for n in g.nodes}

        def spread(ms):
            stack = np.stack([ms[n]["W0"] for n in g.nodes])
            return float((stack.max(axis=0) - stack.min(axis=0)).max())

        before = spread(models)
        for _ in range(30):
            models = dfl_round(g, models)
        assert spread(models) < before / 10
