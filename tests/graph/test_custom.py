"""Custom graph representation (paper §3.1 extensibility) — operators and
algorithms must work on any object implementing the interface."""

import numpy as np
import pytest

from repro.algorithms import bfs, sssp
from tests.validation import reference_bfs, reference_sssp
from repro.graph import generators as gen
from repro.graph.csr import GRAPH_INTERFACE_METHODS
from repro.graph.custom import SortedDegreeGraph
from repro.sycl import Queue


@pytest.fixture
def custom_graph(queue):
    coo = gen.preferential_attachment(300, 6, seed=33, weighted=True)
    return SortedDegreeGraph(queue, coo), coo


class TestInterface:
    def test_implements_required_methods(self, custom_graph):
        g, _ = custom_graph
        for name in GRAPH_INTERFACE_METHODS:
            assert callable(getattr(g, name)), f"missing interface method {name}"

    def test_counts(self, custom_graph):
        g, coo = custom_graph
        assert g.get_vertex_count() == coo.n_vertices
        assert g.get_edge_count() == coo.n_edges

    def test_degrees_in_original_id_space(self, custom_graph):
        g, coo = custom_graph
        expected = np.bincount(coo.src.astype(np.int64), minlength=coo.n_vertices)
        assert np.array_equal(g.out_degrees(), expected)

    def test_neighbors_translated(self, custom_graph):
        g, coo = custom_graph
        v = 5
        expected = sorted(coo.dst[coo.src == v].tolist())
        assert sorted(g.neighbors(v).tolist()) == expected

    def test_gather_neighbors_matches_edge_set(self, custom_graph):
        g, coo = custom_graph
        vs = np.array([0, 1, 2])
        src, dst, eid, w = g.gather_neighbors(vs)
        expected = sorted(
            (int(s), int(d)) for s, d in zip(coo.src, coo.dst) if s in (0, 1, 2)
        )
        assert sorted(zip(src.tolist(), dst.tolist())) == expected


class TestAlgorithmsOnCustomGraph:
    def test_bfs(self, custom_graph):
        g, coo = custom_graph
        r = bfs(g, 0)
        ref = reference_bfs(coo.n_vertices, coo.src, coo.dst, 0)
        assert np.array_equal(r.distances, ref)

    def test_sssp(self, custom_graph):
        g, coo = custom_graph
        r = sssp(g, 0)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-5)

    def test_operators_directly(self, queue, custom_graph):
        from repro.frontier import make_frontier
        from repro.operators import advance

        g, coo = custom_graph
        fin = make_frontier(queue, g.get_vertex_count())
        fout = make_frontier(queue, g.get_vertex_count())
        fin.insert(0)
        advance.frontier(g, fin, fout, lambda s, d, e, w: np.ones(s.size, bool))
        expected = sorted(set(coo.dst[coo.src == 0].tolist()))
        assert sorted(fout.active_elements()) == expected
