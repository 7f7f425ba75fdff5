"""Synthetic graph generators: determinism and family properties."""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.properties import compute_properties
from repro.sycl import Queue


def _props(coo):
    q = Queue(capacity_limit=0)
    return compute_properties(GraphBuilder(q).to_csr(coo))


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: gen.rmat(8, 8, seed=s),
            lambda s: gen.road_network(20, 20, seed=s),
            lambda s: gen.preferential_attachment(200, 4, seed=s),
            lambda s: gen.web_graph(10, 20, seed=s),
            lambda s: gen.erdos_renyi(100, 3.0, seed=s),
        ],
    )
    def test_same_seed_same_graph(self, factory):
        a, b = factory(42), factory(42)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_different_seed_different_graph(self):
        a, b = gen.rmat(8, 8, seed=1), gen.rmat(8, 8, seed=2)
        assert not (a.n_edges == b.n_edges and np.array_equal(a.src, b.src))


class TestRmat:
    def test_vertex_count_power_of_two(self):
        assert gen.rmat(7, 4).n_vertices == 128

    def test_skewed_degrees(self):
        p = _props(gen.rmat(11, 16, seed=5))
        assert p.degree_skew > 20  # scale-free hubs

    def test_no_self_loops(self):
        coo = gen.rmat(8, 8, seed=5)
        assert (coo.src != coo.dst).all()

    def test_dedupe_off_keeps_multi_edges(self):
        dup = gen.rmat(6, 16, seed=5, dedupe=False)
        ded = gen.rmat(6, 16, seed=5, dedupe=True)
        assert dup.n_edges >= ded.n_edges

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen.rmat(0)
        with pytest.raises(ValueError):
            gen.rmat(5, a=0.9, b=0.9, c=0.9)

    def test_weighted(self):
        coo = gen.rmat(6, 4, seed=1, weighted=True)
        assert coo.weights is not None and (coo.weights >= 1.0).all()


class TestRoadNetwork:
    def test_uniform_low_degree(self):
        p = _props(gen.road_network(40, 40, seed=2))
        assert p.max_degree <= 8
        assert not p.is_scale_free_like

    def test_large_diameter(self):
        q = Queue(capacity_limit=0)
        csr = GraphBuilder(q).to_csr(gen.road_network(40, 40, seed=2))
        p = compute_properties(csr, estimate_diameter=True)
        assert p.approx_diameter > 30

    def test_symmetric(self):
        coo = gen.road_network(10, 10, seed=3)
        pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)


class TestPreferentialAttachment:
    def test_scale_free(self):
        p = _props(gen.preferential_attachment(8000, 8, seed=4))
        assert p.is_scale_free_like

    def test_n_must_exceed_m(self):
        with pytest.raises(ValueError):
            gen.preferential_attachment(5, 10)

    def test_connected(self):
        from tests.validation import reference_cc

        coo = gen.preferential_attachment(500, 4, seed=9)
        n_comp, _ = reference_cc(coo.n_vertices, coo.src, coo.dst)
        assert n_comp == 1


class TestWebGraph:
    def test_orphans_unreachable(self):
        """Orphan pages receive no in-links (permanently zero bitmap words)."""
        coo = gen.web_graph(10, 40, orphan_fraction=0.25, seed=6)
        in_deg = np.bincount(coo.dst.astype(np.int64), minlength=coo.n_vertices)
        local = np.arange(coo.n_vertices) % 40
        orphan_start = int(40 * 0.75)
        assert (in_deg[local >= orphan_start] == 0).all()

    def test_hubs_have_high_degree(self):
        p = _props(gen.web_graph(50, 50, intra_degree=10, seed=6))
        assert p.degree_skew > 5


class TestSmallShapes:
    def test_path(self):
        coo = gen.path_graph(5)
        assert coo.n_edges == 4

    def test_cycle(self):
        coo = gen.cycle_graph(5)
        assert coo.n_edges == 5

    def test_star(self):
        coo = gen.star_graph(10)
        assert _props(coo).max_degree == 9

    def test_complete(self):
        coo = gen.complete_graph(5)
        assert coo.n_edges == 20
