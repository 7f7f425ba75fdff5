"""Betweenness centrality (Brandes) vs networkx."""

import numpy as np
import pytest

from repro.algorithms import bc
from tests.validation import reference_bc
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges
from repro.sycl import Queue


class TestSingleSource:
    def test_diamond_dependency(self, queue, diamond):
        # paths from 0: 0-1-3, 0-2-3, 0-{1,2}-3-4; delta(3)=..., known values
        result = bc(diamond, sources=[0])
        ref = reference_bc(5, np.array([0, 0, 1, 2, 3]), np.array([1, 2, 3, 3, 4]), sources=[0])
        assert np.allclose(result.scores, ref)

    def test_path_graph(self, queue, builder):
        g = builder.to_csr(gen.path_graph(5))
        result = bc(g, sources=[0])
        # interior vertices carry dependency 3,2,1; endpoints 0
        assert np.allclose(result.scores, [0, 3, 2, 1, 0])

    def test_source_scores_zero(self, queue, builder):
        g = builder.to_csr(gen.erdos_renyi(50, 3.0, seed=12))
        result = bc(g, sources=[7])
        assert result.scores[7] == 0.0


class TestExact:
    def test_matches_networkx_exact(self, queue, builder):
        coo = gen.erdos_renyi(40, 3.0, seed=13)
        g = builder.to_csr(coo)
        result = bc(g, sources=list(range(40)))
        ref = reference_bc(40, coo.src, coo.dst)
        assert np.allclose(result.scores, ref, atol=1e-8)

    def test_normalization(self, queue, builder):
        coo = gen.erdos_renyi(30, 3.0, seed=14)
        g = builder.to_csr(coo)
        raw = bc(g, sources=list(range(30)))
        norm = bc(g, sources=list(range(30)), normalize=True)
        assert np.allclose(norm.scores, raw.scores / (29 * 28))

    def test_sampled_sources_accumulate(self, queue, builder):
        coo = gen.preferential_attachment(60, 4, seed=15)
        g = builder.to_csr(coo)
        sources = [0, 5, 10]
        result = bc(g, sources=sources)
        ref = reference_bc(60, coo.src, coo.dst, sources=sources)
        assert np.allclose(result.scores, ref, atol=1e-8)

    @pytest.mark.parametrize("layout", ["bitmap", "2lb"])
    def test_layout_independent(self, queue, builder, layout):
        coo = gen.erdos_renyi(40, 3.0, seed=16)
        g = builder.to_csr(coo)
        ref = reference_bc(40, coo.src, coo.dst, sources=[0, 1])
        assert np.allclose(bc(g, sources=[0, 1], layout=layout).scores, ref, atol=1e-8)


class TestEdgeCases:
    def test_default_source(self, diamond):
        assert bc(diamond).sources == [0]

    def test_invalid_source(self, diamond):
        with pytest.raises(ValueError):
            bc(diamond, sources=[10])

    def test_disconnected_source_contributes_nothing(self, queue):
        g = from_edges(queue, [0], [1], n_vertices=4)
        result = bc(g, sources=[3])
        assert (result.scores == 0).all()

    def test_hub_has_highest_centrality(self, queue, builder):
        """In a star with through-traffic, the hub dominates."""
        # star 1..5 -> 0 -> 6..10: all paths go through 0
        src = list(range(1, 6)) + [0] * 5
        dst = [0] * 5 + list(range(6, 11))
        g = from_edges(queue, src, dst)
        result = bc(g, sources=list(range(11)))
        assert result.scores.argmax() == 0
