"""SSSP (Bellman-Ford) and delta-stepping vs Dijkstra reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import delta_stepping, sssp
from tests.validation import reference_sssp
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges
from repro.sycl import Queue


class TestBellmanFord:
    def test_matches_dijkstra(self, weighted_random):
        g, coo = weighted_random
        r = sssp(g, 0)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-5)

    def test_unweighted_equals_bfs_depth(self, queue, builder):
        from repro.algorithms import bfs

        coo = gen.erdos_renyi(150, 4.0, seed=31)
        g = builder.to_csr(coo)
        r = sssp(g, 0)
        b = bfs(g, 0)
        reached = b.distances >= 0
        assert np.allclose(r.distances[reached], b.distances[reached])
        assert np.isinf(r.distances[~reached]).all()

    def test_unreachable_infinite(self, queue):
        g = from_edges(queue, [0], [1], weights=[2.0], n_vertices=3)
        r = sssp(g, 0)
        assert np.isinf(r.distances[2])

    def test_shorter_path_wins(self, queue):
        # 0->2 direct costs 10; 0->1->2 costs 3
        g = from_edges(queue, [0, 0, 1], [2, 1, 2], weights=[10.0, 1.0, 2.0])
        r = sssp(g, 0)
        assert r.distances[2] == pytest.approx(3.0)

    def test_invalid_source(self, diamond):
        with pytest.raises(ValueError):
            sssp(diamond, -1)

    def test_relaxation_count_positive(self, weighted_random):
        g, _ = weighted_random
        assert sssp(g, 0).relaxations > 0

    def test_relaxation_count_counts_improved_edges(self, diamond):
        # 0->1, 0->2, 1->3, 2->3, 3->4 with unit weights.  Iteration 1
        # improves 1 and 2 (2 relaxations); iteration 2 improves 3 via
        # BOTH in-edges in the same sweep (2 relaxations); iteration 3
        # improves 4 (1).  Counting output-frontier vertices instead of
        # improved edges — the old bug — would report 4, merging the two
        # concurrent relaxations of vertex 3.
        assert sssp(diamond, 0).relaxations == 5


class TestDeltaStepping:
    def test_matches_dijkstra(self, weighted_random):
        g, coo = weighted_random
        r = delta_stepping(g, 0)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-5)

    def test_explicit_delta(self, weighted_random):
        g, coo = weighted_random
        r = delta_stepping(g, 0, delta=2.0)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-5)

    def test_huge_delta_degenerates_to_bellman_ford(self, weighted_random):
        g, coo = weighted_random
        r = delta_stepping(g, 0, delta=1e9)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-5)

    def test_road_graph(self, queue, builder):
        coo = gen.road_network(12, 12, seed=5, weighted=True)
        g = builder.to_csr(coo)
        r = delta_stepping(g, 0)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-5)


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 24), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=100,
    ),
    source=st.integers(0, 24),
)
def test_sssp_and_delta_stepping_agree_with_dijkstra(edges, source):
    queue = Queue(capacity_limit=0)
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    w = np.array([e[2] for e in edges], dtype=np.float32)
    # scipy's dijkstra treats duplicate edges by min weight; dedupe first
    from repro.graph.coo import COOGraph

    coo = COOGraph(25, src, dst, w).deduplicated()
    g = GraphBuilder(queue).to_csr(coo)
    ref = reference_sssp(25, coo.src, coo.dst, coo.weights, source)
    assert np.allclose(sssp(g, source).distances, ref, rtol=1e-4)
    assert np.allclose(delta_stepping(g, source).distances, ref, rtol=1e-4)
