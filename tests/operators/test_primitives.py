"""The advance / filter / compute primitives (paper Table 2)."""

import numpy as np
import pytest

from repro.frontier import FrontierView, make_frontier
from repro.graph.builder import from_edges
from repro.operators import advance, compute, filter as filt, scalar_functor, segmented_intersection
from repro.operators.advance import AdvanceConfig

LAYOUTS = ["bitmap", "2lb", "vector", "boolmap"]


def accept_all(src, dst, eid, w):
    return np.ones(src.size, dtype=bool)


class TestAdvanceFrontier:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_expands_neighbors(self, queue, diamond, layout):
        fin = make_frontier(queue, 5, layout=layout)
        fout = make_frontier(queue, 5, layout=layout)
        fin.insert(0)
        ev = advance.frontier(diamond, fin, fout, accept_all)
        assert ev.is_complete
        assert sorted(fout.active_elements()) == [1, 2]

    def test_functor_filters_edges(self, queue, diamond):
        fin = make_frontier(queue, 5)
        fout = make_frontier(queue, 5)
        fin.insert(0)
        advance.frontier(diamond, fin, fout, lambda s, d, e, w: d == 2)
        assert list(fout.active_elements()) == [2]

    def test_functor_receives_edge_data(self, queue, diamond):
        seen = {}

        def probe(src, dst, eid, w):
            seen["src"], seen["dst"], seen["eid"], seen["w"] = src, dst, eid, w
            return np.zeros(src.size, dtype=bool)

        fin = make_frontier(queue, 5)
        fin.insert([0, 3])
        advance.frontier(diamond, fin, None, probe)
        assert list(seen["src"]) == [0, 0, 3]
        assert list(seen["dst"]) == [1, 2, 4]
        assert list(seen["eid"]) == [0, 1, 4]
        assert seen["w"].shape == (3,)

    def test_storeless_overload(self, queue, diamond):
        """Table 2: advance::frontier(G, In, Functor) with no output."""
        fin = make_frontier(queue, 5)
        fin.insert(0)
        ev = advance.frontier(diamond, fin, None, accept_all)
        assert ev.is_complete

    def test_empty_frontier(self, queue, diamond):
        fin = make_frontier(queue, 5)
        fout = make_frontier(queue, 5)
        advance.frontier(diamond, fin, fout, accept_all)
        assert fout.empty()

    def test_no_duplicates_in_bitmap_output(self, queue):
        """Two parents discover vertex 2 — bitmap holds it exactly once."""
        g = from_edges(queue, [0, 1], [2, 2], n_vertices=3)
        fin = make_frontier(queue, 3)
        fout = make_frontier(queue, 3)
        fin.insert([0, 1])
        advance.frontier(g, fin, fout, accept_all)
        assert fout.count() == 1

    def test_vector_output_keeps_duplicates(self, queue):
        """The same two-parent case: vector appends both discoveries."""
        g = from_edges(queue, [0, 1], [2, 2], n_vertices=3)
        fin = make_frontier(queue, 3, layout="vector")
        fout = make_frontier(queue, 3, layout="vector")
        fin.insert([0, 1])
        advance.frontier(g, fin, fout, accept_all)
        assert fout.size_with_duplicates == 2
        assert fout.count() == 1

    def test_2lb_offsets_prepass_submitted(self, queue, diamond):
        fin = make_frontier(queue, 5, layout="2lb")
        fin.insert(0)
        advance.frontier(diamond, fin, None, accept_all)
        names = [c.name for c in queue.profile.costs]
        assert "advance.frontier.offsets" in names
        assert "advance.frontier" in names

    def test_plain_bitmap_has_no_prepass(self, queue, diamond):
        fin = make_frontier(queue, 5, layout="bitmap")
        fin.insert(0)
        advance.frontier(diamond, fin, None, accept_all)
        names = [c.name for c in queue.profile.costs]
        assert "advance.frontier.offsets" not in names


class TestAdvanceVertices:
    def test_all_vertices(self, queue, diamond):
        fout = make_frontier(queue, 5)
        advance.vertices(diamond, fout, accept_all)
        assert sorted(fout.active_elements()) == [1, 2, 3, 4]

    def test_bc_style_initialization(self, queue, diamond):
        """advance::vertices is how BC seeds its state (paper §3.1)."""
        touched = np.zeros(5, dtype=bool)

        def init(src, dst, eid, w):
            touched[dst] = True
            return np.zeros(src.size, dtype=bool)

        advance.vertices(diamond, None, init)
        assert touched[1] and touched[4]


class TestAdvancePull:
    def test_pull_finds_frontier_parents(self, queue, builder):
        from repro.graph.coo import COOGraph

        coo = COOGraph(4, [0, 1, 2], [2, 2, 3])
        csc = builder.to_csc(coo)
        fin = make_frontier(queue, 4)
        fout = make_frontier(queue, 4)
        fin.insert([0])
        candidates = np.array([2, 3])
        advance.frontier_pull(csc, fin, fout, accept_all, candidates)
        # vertex 2 has parent 0 in frontier; vertex 3's parent (2) is not
        assert list(fout.active_elements()) == [2]


class TestFilter:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_inplace(self, queue, diamond, layout):
        f = make_frontier(queue, 5, layout=layout)
        f.insert([1, 2, 3])
        filt.inplace(diamond, f, lambda ids: ids % 2 == 1)
        assert sorted(f.active_elements()) == [1, 3]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_external(self, queue, diamond, layout):
        fin = make_frontier(queue, 5, layout=layout)
        fout = make_frontier(queue, 5, layout=layout)
        fin.insert([1, 2, 3])
        fout.insert([4])  # must be cleared
        filt.external(diamond, fin, fout, lambda ids: ids >= 2)
        assert sorted(fout.active_elements()) == [2, 3]
        assert sorted(fin.active_elements()) == [1, 2, 3]  # input untouched

    def test_filter_empty(self, queue, diamond):
        f = make_frontier(queue, 5)
        ev = filt.inplace(diamond, f, lambda ids: ids > 0)
        assert ev.is_complete


class TestCompute:
    def test_execute_applies_to_active(self, queue, diamond):
        f = make_frontier(queue, 5)
        f.insert([1, 3])
        values = np.zeros(5)
        compute.execute(diamond, f, lambda ids: values.__setitem__(ids, 7.0))
        assert list(values) == [0, 7, 0, 7, 0]

    def test_execute_all(self, queue, diamond):
        values = np.zeros(5)
        compute.execute_all(diamond, lambda ids: values.__setitem__(ids, 1.0))
        assert (values == 1.0).all()

    def test_listing1_depth_stamp(self, queue, diamond):
        """The exact compute from Listing 1: dist[v] = iter + 1."""
        dist = np.full(5, -1, np.int64)
        f = make_frontier(queue, 5)
        f.insert([1, 2])
        compute.execute(diamond, f, lambda ids: dist.__setitem__(ids, 1))
        assert dist[1] == dist[2] == 1 and dist[0] == -1


class TestScalarFunctor:
    def test_advance_scalar(self, queue, diamond):
        fin = make_frontier(queue, 5)
        fout = make_frontier(queue, 5)
        fin.insert(0)
        advance.frontier(diamond, fin, fout, scalar_functor(lambda s, d, e, w: d == 1))
        assert list(fout.active_elements()) == [1]

    def test_filter_scalar(self, queue, diamond):
        f = make_frontier(queue, 5)
        f.insert([1, 2])
        filt.inplace(diamond, f, scalar_functor(lambda v: v == 2))
        assert list(f.active_elements()) == [2]

    def test_compute_scalar_side_effects(self, queue, diamond):
        acc = []
        f = make_frontier(queue, 5)
        f.insert([3, 1])
        compute.execute(diamond, f, scalar_functor(lambda v: acc.append(int(v))))
        assert sorted(acc) == [1, 3]


class TestSegmentedIntersection:
    def test_common_neighborhood(self, queue):
        # 0 -> {2,3}, 1 -> {3,4}: N(0) & N(1) = {3}
        g = from_edges(queue, [0, 0, 1, 1], [2, 3, 3, 4])
        a = make_frontier(queue, 5)
        b = make_frontier(queue, 5)
        out = make_frontier(queue, 5)
        a.insert(0)
        b.insert(1)
        segmented_intersection(g, a, b, out)
        assert list(out.active_elements()) == [3]

    def test_disjoint_neighborhoods(self, queue):
        g = from_edges(queue, [0, 1], [2, 3])
        a = make_frontier(queue, 4)
        b = make_frontier(queue, 4)
        out = make_frontier(queue, 4)
        a.insert(0)
        b.insert(1)
        segmented_intersection(g, a, b, out)
        assert out.empty()

    @pytest.mark.parametrize(
        "layout,shape",
        [("bitmap", {"bits": 64}), ("2lb", {"bits": 64}), ("tree", {"n_layers": 3})],
    )
    def test_scratch_frontiers_shaped_like_out(self, queue, monkeypatch, layout, shape):
        """The scratch neighborhoods take ``out``'s word width and depth: a
        64-bit output on the 32-bit V100S, and a tree output."""
        from repro.operators import intersection

        scratch = []
        real = intersection.frontier_intersection

        def spy(na, nb, out):
            scratch.extend((na, nb))
            return real(na, nb, out)

        monkeypatch.setattr(intersection, "frontier_intersection", spy)
        g = from_edges(queue, [0, 0, 1, 1], [2, 3, 3, 4])
        a = make_frontier(queue, 5)
        b = make_frontier(queue, 5)
        out = make_frontier(queue, 5, layout=layout, **shape)
        a.insert(0)
        b.insert(1)
        segmented_intersection(g, a, b, out)
        assert list(out.active_elements()) == [3]
        assert [(f.bits, f.n_layers) for f in scratch] == [(out.bits, out.n_layers)] * 2


class TestFunctorValidation:
    def test_bad_mask_shape_rejected(self, queue, diamond):
        fin = make_frontier(queue, 5)
        fin.insert(0)
        with pytest.raises(TypeError):
            advance.frontier(diamond, fin, None, lambda s, d, e, w: np.ones(99, bool))

    def test_none_mask_rejected(self, queue, diamond):
        fin = make_frontier(queue, 5)
        fin.insert(0)
        with pytest.raises(TypeError):
            advance.frontier(diamond, fin, None, lambda s, d, e, w: None)

    def test_scalar_bool_broadcast(self, queue, diamond):
        fin = make_frontier(queue, 5)
        fout = make_frontier(queue, 5)
        fin.insert(0)
        advance.frontier(diamond, fin, fout, lambda s, d, e, w: True)
        assert fout.count() == 2
