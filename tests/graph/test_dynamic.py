"""Dynamic graph: delta buffering, amortized rebuilds, live algorithms."""

import numpy as np
import pytest

from repro.algorithms import bfs, sssp
from tests.validation import reference_bfs
from repro.errors import GraphFormatError
from repro.graph import generators as gen
from repro.graph.coo import COOGraph
from repro.graph.dynamic import DynamicGraph


@pytest.fixture
def dyn(queue):
    coo = gen.erdos_renyi(200, 4.0, seed=91)
    return DynamicGraph(queue, coo), coo


class TestMutation:
    def test_insert_reflected_in_counts(self, dyn):
        g, coo = dyn
        before = g.get_edge_count()
        g.insert_edges([0, 1], [5, 6])
        assert g.get_edge_count() == before + 2

    def test_delta_buffer_fills_then_rebuilds(self, queue):
        coo = gen.erdos_renyi(100, 2.0, seed=92)
        g = DynamicGraph(queue, coo, rebuild_threshold=0.1)
        budget = int(0.1 * coo.n_edges)
        g.insert_edges(np.zeros(budget + 1, dtype=np.int64), np.arange(1, budget + 2))
        assert g.rebuilds == 1
        assert g.delta_edges == 0

    def test_degrees_include_delta(self, dyn):
        g, coo = dyn
        before = int(g.out_degrees(np.array([3]))[0])
        g.insert_edges([3, 3], [10, 11])
        assert int(g.out_degrees(np.array([3]))[0]) == before + 2

    def test_neighbors_merge_base_and_delta(self, dyn):
        g, coo = dyn
        g.insert_edges([7], [199])
        assert 199 in g.neighbors(7)

    def test_out_of_range_rejected(self, dyn):
        g, _ = dyn
        with pytest.raises(GraphFormatError):
            g.insert_edges([0], [5000])

    def test_length_mismatch_rejected(self, dyn):
        g, _ = dyn
        with pytest.raises(GraphFormatError):
            g.insert_edges([0, 1], [2])

    def test_edge_endpoints_across_base_and_delta(self, dyn):
        g, coo = dyn
        g.insert_edges([9], [42], weights=[2.0])
        delta_id = g.get_edge_count() - 1
        src, dst = g.edge_endpoints(np.array([0, delta_id]))
        assert dst[1] == 42 and src[1] == 9


class TestAlgorithmsOnEvolvingGraph:
    def test_bfs_before_and_after_insertion(self, queue):
        """Adding a shortcut edge must shorten BFS distances immediately."""
        coo = gen.path_graph(50)
        g = DynamicGraph(queue, coo)
        assert bfs(g, 0).distances[49] == 49
        g.insert_edges([0], [40])  # shortcut
        r = bfs(g, 0)
        assert r.distances[40] == 1
        assert r.distances[49] == 10

    def test_bfs_matches_reference_after_many_inserts(self, queue):
        rng = np.random.default_rng(93)
        coo = gen.erdos_renyi(150, 2.0, seed=93)
        g = DynamicGraph(queue, coo, rebuild_threshold=0.05)
        extra_src = rng.integers(0, 150, size=120)
        extra_dst = rng.integers(0, 150, size=120)
        for i in range(0, 120, 10):
            g.insert_edges(extra_src[i : i + 10], extra_dst[i : i + 10])
        assert g.rebuilds >= 1
        full = COOGraph(
            150,
            np.concatenate([coo.src, extra_src]),
            np.concatenate([coo.dst, extra_dst]),
        )
        ref = reference_bfs(150, full.src, full.dst, 0)
        assert np.array_equal(bfs(g, 0).distances, ref)

    def test_sssp_uses_inserted_weights(self, queue):
        coo = COOGraph(3, [0], [1], weights=[5.0])
        g = DynamicGraph(queue, coo)
        g.insert_edges([1], [2], weights=[1.5])
        r = sssp(g, 0)
        assert r.distances[2] == pytest.approx(6.5)

    def test_rebuild_preserves_results(self, queue):
        coo = gen.erdos_renyi(100, 3.0, seed=94)
        g = DynamicGraph(queue, coo, rebuild_threshold=1e9)  # never rebuild
        g.insert_edges([0, 1, 2], [50, 60, 70])
        before = bfs(g, 0).distances
        g._rebuild()
        assert g.delta_edges == 0
        after = bfs(g, 0).distances
        assert np.array_equal(before, after)
