"""Edge-view advance (V2E / E2V) and their composition."""

import numpy as np
import pytest

from repro.errors import FrontierError
from repro.frontier import FrontierView, make_frontier, swap
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges
from repro.operators.edge_advance import edges_to_vertices, vertices_to_edges


def accept_all(src, dst, eid, w):
    return np.ones(src.size, dtype=bool)


def _edge_frontier(queue, graph, layout="2lb"):
    return make_frontier(queue, graph.get_edge_count(), FrontierView.EDGE, layout=layout)


def _vertex_frontier(queue, graph, layout="2lb"):
    return make_frontier(queue, graph.get_vertex_count(), FrontierView.VERTEX, layout=layout)


class TestV2E:
    def test_activates_out_edges(self, queue, diamond):
        fin = _vertex_frontier(queue, diamond)
        fout = _edge_frontier(queue, diamond)
        fin.insert(0)
        vertices_to_edges(diamond, fin, fout, accept_all)
        assert sorted(fout.active_elements()) == [0, 1]  # edges 0->1, 0->2

    def test_functor_selects_edges(self, queue, diamond):
        fin = _vertex_frontier(queue, diamond)
        fout = _edge_frontier(queue, diamond)
        fin.insert(0)
        vertices_to_edges(diamond, fin, fout, lambda s, d, e, w: d == 2)
        assert list(fout.active_elements()) == [1]

    def test_view_mismatch_rejected(self, queue, diamond):
        fin = _vertex_frontier(queue, diamond)
        with pytest.raises(FrontierError):
            vertices_to_edges(diamond, fin, _vertex_frontier(queue, diamond), accept_all)
        fe = _edge_frontier(queue, diamond)
        with pytest.raises(FrontierError):
            vertices_to_edges(diamond, fe, fe, accept_all)


class TestE2V:
    def test_destinations_of_edges(self, queue, diamond):
        fe = _edge_frontier(queue, diamond)
        fv = _vertex_frontier(queue, diamond)
        fe.insert([0, 4])  # edges 0->1 and 3->4
        edges_to_vertices(diamond, fe, fv, accept_all)
        assert sorted(fv.active_elements()) == [1, 4]

    def test_functor_sees_endpoints(self, queue, diamond):
        seen = {}
        fe = _edge_frontier(queue, diamond)
        fv = _vertex_frontier(queue, diamond)
        fe.insert([2])  # edge 1->3

        def probe(src, dst, eid, w):
            seen["src"], seen["dst"] = src, dst
            return np.ones(src.size, dtype=bool)

        edges_to_vertices(diamond, fe, fv, probe)
        assert list(seen["src"]) == [1] and list(seen["dst"]) == [3]

    def test_empty_edge_frontier(self, queue, diamond):
        fe = _edge_frontier(queue, diamond)
        fv = _vertex_frontier(queue, diamond)
        edges_to_vertices(diamond, fe, fv, accept_all)
        assert fv.empty()


class TestComposition:
    def test_v2e_then_e2v_equals_v2v(self, queue):
        """The edge-view pair composes to the plain advance."""
        from repro.operators import advance

        coo = gen.erdos_renyi(150, 4.0, seed=71)
        g = GraphBuilder(queue).to_csr(coo)
        start = np.array([0, 3, 9])

        fin = _vertex_frontier(queue, g)
        fin.insert(start)
        direct = _vertex_frontier(queue, g)
        advance.frontier(g, fin, direct, accept_all)

        fin2 = _vertex_frontier(queue, g)
        fin2.insert(start)
        fe = _edge_frontier(queue, g)
        composed = _vertex_frontier(queue, g)
        vertices_to_edges(g, fin2, fe, accept_all)
        edges_to_vertices(g, fe, composed, accept_all)

        assert np.array_equal(direct.active_elements(), composed.active_elements())

    def test_bfs_via_edge_frontiers(self, queue):
        """A full BFS written with V2E + E2V matches the reference."""
        from tests.validation import reference_bfs

        coo = gen.erdos_renyi(120, 3.0, seed=72)
        g = GraphBuilder(queue).to_csr(coo)
        n = g.get_vertex_count()
        dist = np.full(n, -1, np.int64)
        dist[0] = 0
        fin = _vertex_frontier(queue, g)
        fin.insert(0)
        it = 0
        while not fin.empty():
            fe = _edge_frontier(queue, g)
            vertices_to_edges(g, fin, fe, lambda s, d, e, w: dist[d] == -1)
            fout = _vertex_frontier(queue, g)
            edges_to_vertices(g, fe, fout, lambda s, d, e, w: dist[d] == -1)
            depth = it + 1
            fresh = fout.active_elements()
            dist[fresh] = depth
            fin = fout
            it += 1
        ref = reference_bfs(120, coo.src, coo.dst, 0)
        assert np.array_equal(dist, ref)
