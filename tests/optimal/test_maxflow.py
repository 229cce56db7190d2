"""Unit tests for the from-scratch Dinic max-flow solver (the flow oracle)."""

import numpy as np
import pytest

from tests.oracles import MaxFlowNetwork


class TestBasicGraphs:
    def test_single_edge(self):
        net = MaxFlowNetwork(2)
        net.add_edge(0, 1, 5.0)
        assert net.max_flow(0, 1).value == pytest.approx(5.0)

    def test_series_bottleneck(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 3.0)
        assert net.max_flow(0, 2).value == pytest.approx(3.0)

    def test_parallel_paths(self):
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, 2.0)
        net.add_edge(0, 2, 3.0)
        net.add_edge(1, 3, 2.0)
        net.add_edge(2, 3, 3.0)
        assert net.max_flow(0, 3).value == pytest.approx(5.0)

    def test_classic_augmenting_diamond(self):
        # needs flow rerouting through the cross edge
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(0, 2, 1.0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(1, 3, 1.0)
        net.add_edge(2, 3, 1.0)
        assert net.max_flow(0, 3).value == pytest.approx(2.0)

    def test_disconnected(self):
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, 5.0)
        net.add_edge(2, 3, 5.0)
        assert net.max_flow(0, 3).value == 0.0

    def test_edge_flows_readback(self):
        net = MaxFlowNetwork(3)
        a = net.add_edge(0, 1, 4.0)
        b = net.add_edge(1, 2, 4.0)
        res = net.max_flow(0, 2)
        assert res.edge_flows[a] == pytest.approx(4.0)
        assert res.edge_flows[b] == pytest.approx(4.0)

    def test_fractional_capacities(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 0.3)
        net.add_edge(0, 1, 0.45)
        net.add_edge(1, 2, 1.0)
        assert net.max_flow(0, 2).value == pytest.approx(0.75)


class TestValidation:
    def test_rejects_bad_nodes(self):
        net = MaxFlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 5, 1.0)
        with pytest.raises(ValueError):
            net.add_edge(0, 0, 1.0)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1.0)

    def test_rejects_source_equals_sink(self):
        net = MaxFlowNetwork(2)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            net.max_flow(0, 0)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            MaxFlowNetwork(1)


class TestMinCut:
    def test_reachability_after_flow(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 3.0)
        net.max_flow(0, 2)
        reach = net.min_cut_reachable(0)
        assert reach == [True, True, False]  # cut on edge 1->2

    def test_cut_value_equals_flow(self):
        # random-ish bipartite graph: min-cut == max-flow (LP duality)
        rng = np.random.default_rng(3)
        n_left, n_right = 4, 4
        net = MaxFlowNetwork(n_left + n_right + 2)
        s, t = 0, n_left + n_right + 1
        caps = {}
        for i in range(n_left):
            c = float(rng.uniform(0.5, 2))
            caps[(s, 1 + i)] = c
            net.add_edge(s, 1 + i, c)
        for i in range(n_left):
            for j in range(n_right):
                if rng.random() < 0.6:
                    c = float(rng.uniform(0.1, 1.5))
                    caps[(1 + i, 1 + n_left + j)] = c
                    net.add_edge(1 + i, 1 + n_left + j, c)
        for j in range(n_right):
            c = float(rng.uniform(0.5, 2))
            caps[(1 + n_left + j, t)] = c
            net.add_edge(1 + n_left + j, t, c)
        res = net.max_flow(s, t)
        reach = net.min_cut_reachable(s)
        cut = sum(c for (u, v), c in caps.items() if reach[u] and not reach[v])
        assert res.value == pytest.approx(cut, rel=1e-9)
