"""Extension algorithms: PageRank, triangle counting."""

import numpy as np
import pytest

from repro.algorithms import pagerank, triangle_count
from tests.validation import reference_pagerank, reference_triangles
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges


class TestPageRank:
    def test_matches_networkx(self, queue, builder):
        coo = gen.erdos_renyi(60, 4.0, seed=5)
        g = builder.to_csr(coo)
        result = pagerank(g, tol=1e-10)
        ref = reference_pagerank(60, coo.src, coo.dst)
        assert np.allclose(result.ranks, ref, atol=1e-6)

    def test_ranks_sum_to_one(self, queue, builder):
        g = builder.to_csr(gen.preferential_attachment(100, 4, seed=6))
        result = pagerank(g)
        assert result.ranks.sum() == pytest.approx(1.0, abs=1e-6)

    def test_hub_ranks_highest(self, queue):
        # everyone points at 0
        g = from_edges(queue, [1, 2, 3, 4], [0, 0, 0, 0])
        result = pagerank(g)
        assert result.top(1)[0] == 0

    def test_dangling_mass_redistributed(self, queue):
        # 0 -> 1, 1 dangles: no rank lost
        g = from_edges(queue, [0], [1])
        result = pagerank(g)
        assert result.ranks.sum() == pytest.approx(1.0, abs=1e-6)

    def test_converges_before_max_iterations(self, queue, builder):
        g = builder.to_csr(gen.erdos_renyi(50, 4.0, seed=7))
        result = pagerank(g, tol=1e-8, max_iterations=200)
        assert result.iterations < 200
        assert result.residual < 1e-8

    def test_empty_graph(self, queue):
        g = from_edges(queue, [], [], n_vertices=0)
        assert pagerank(g).iterations == 0


class TestTriangles:
    def test_triangle(self, queue, builder):
        g = builder.to_csr(gen.complete_graph(3))
        assert triangle_count(g) == 1

    def test_complete_graph(self, queue, builder):
        # K5 has C(5,3) = 10 triangles
        g = builder.to_csr(gen.complete_graph(5))
        assert triangle_count(g) == 10

    def test_triangle_free(self, queue, builder):
        g = builder.to_csr(gen.path_graph(10).symmetrized())
        assert triangle_count(g) == 0

    def test_matches_reference_random(self, undirected_random):
        g, coo = undirected_random
        assert triangle_count(g) == reference_triangles(coo.n_vertices, coo.src, coo.dst)

    def test_empty_graph(self, queue):
        g = from_edges(queue, [], [], n_vertices=5)
        assert triangle_count(g) == 0
