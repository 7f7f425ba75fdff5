"""Bitmap-tree frontier (paper §4.4) invariants and semantics, at every
depth of ``BitmapFrontier``: one layer is the flat bitmap, two the 2LB."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrontierError
from repro.frontier import make_frontier
from repro.frontier.bitmap import BitmapFrontier
from repro.sycl import Queue


@pytest.fixture(params=[1, 2, 3, 4])
def tree(request, queue):
    return BitmapFrontier(queue, 5000, n_layers=request.param)


class TestBasics:
    def test_set_semantics(self, tree):
        tree.insert([0, 64, 4999, 64])
        assert sorted(tree.active_elements()) == [0, 64, 4999]
        tree.remove([64])
        assert sorted(tree.active_elements()) == [0, 4999]
        tree.clear()
        assert tree.empty()

    def test_invariant_after_mutations(self, tree):
        tree.insert(np.arange(0, 5000, 17))
        assert tree.check_invariant()
        tree.remove(np.arange(0, 5000, 34))
        assert tree.check_invariant()

    def test_nonzero_words_via_tree_walk(self, tree):
        tree.insert([5, 4096])
        expected = np.nonzero(np.asarray(tree.layers[0]))[0]
        assert np.array_equal(tree.nonzero_words(), expected)

    def test_contains(self, tree):
        tree.insert([10])
        assert list(tree.contains([10, 11])) == [True, False]

    def test_offsets(self, tree):
        tree.insert([0, 4999])
        if tree.n_layers == 1:
            # the flat bitmap's advance scans every word: no offsets buffer
            assert tree.offsets is None
            with pytest.raises(FrontierError):
                tree.compute_offsets()
            return
        offsets = tree.compute_offsets()
        assert offsets.size == tree.n_offsets == 2


class TestDepthBehaviour:
    def test_invalid_depth(self, queue):
        with pytest.raises(FrontierError):
            BitmapFrontier(queue, 100, n_layers=0)

    def test_one_layer_is_flat_bitmap(self, queue):
        t = BitmapFrontier(queue, 1000, n_layers=1)
        t.insert([7])
        assert list(t.nonzero_words()) == [7 // t.bits]

    def test_memory_grows_slowly_with_depth(self, queue):
        sizes = [
            BitmapFrontier(queue, 100_000, n_layers=k).nbytes for k in (1, 2, 3)
        ]
        assert sizes[0] < sizes[1] < sizes[2]
        # each extra layer is ~1/bits the size of the previous
        assert sizes[2] - sizes[1] < (sizes[1] - sizes[0])

    def test_swap_requires_same_depth(self, queue):
        a = BitmapFrontier(queue, 100, n_layers=2)
        b = BitmapFrontier(queue, 100, n_layers=3)
        with pytest.raises(FrontierError):
            from repro.frontier import swap

            swap(a, b)

    def test_factory_layout_name(self, queue):
        t = make_frontier(queue, 100, layout="tree", n_layers=3)
        assert isinstance(t, BitmapFrontier)
        assert t.n_layers == 3

    @pytest.mark.parametrize("layout,depth", [("bitmap", 1), ("2lb", 2), ("tree", 2)])
    def test_factory_depths(self, queue, layout, depth):
        assert make_frontier(queue, 100, layout=layout).n_layers == depth

    @pytest.mark.parametrize("layout", ["bitmap", "2lb"])
    def test_fixed_depth_layouts_reject_n_layers(self, queue, layout):
        with pytest.raises(TypeError):
            make_frontier(queue, 100, layout=layout, n_layers=3)

    def test_allocations_per_depth(self):
        """One layer: the element words and nothing else.  Two layers: the
        2LB's words, layer 1, then the offsets buffer.  Deeper trees add
        their layers before the buffer."""
        sizes = {}
        for n_layers in (1, 2, 3):
            q = Queue(capacity_limit=0)
            BitmapFrontier(q, 5000, bits=32, n_layers=n_layers)
            sizes[n_layers] = [(a.label, a.nbytes) for a in q.memory.live_allocations]
        assert sizes[1] == [("frontier.bitmap", 157 * 4)]
        assert sizes[2] == [
            ("frontier.2lb.l1", 157 * 4), ("frontier.2lb.l2", 5 * 4), ("frontier.2lb.offsets", 157 * 8),
        ]
        assert [nbytes for _, nbytes in sizes[3]] == [157 * 4, 5 * 4, 1 * 4, 157 * 8]


class TestAdvanceIntegration:
    def test_deeper_trees_cost_more(self):
        """The §4.4 claim, at operator granularity."""
        from repro.graph.builder import GraphBuilder
        from repro.graph.datasets import load_dataset
        from repro.operators import advance

        coo = load_dataset("kron", "tiny")
        times = {}
        for nl in (2, 3):
            q = Queue(capacity_limit=0)
            g = GraphBuilder(q).to_csr(coo)
            fin = make_frontier(q, g.get_vertex_count(), layout="tree", n_layers=nl)
            fout = make_frontier(q, g.get_vertex_count(), layout="tree", n_layers=nl)
            fin.insert(np.arange(0, g.get_vertex_count(), 3))
            q.reset_profile()
            advance.frontier(g, fin, fout, lambda s, d, e, w: np.ones(s.size, bool))
            times[nl] = q.elapsed_ns
        assert times[3] > times[2]

    def test_layer_kernels_submitted(self, queue):
        from repro.graph.builder import from_edges
        from repro.operators import advance

        g = from_edges(queue, [0, 1], [1, 2])
        fin = make_frontier(queue, 3, layout="tree", n_layers=3)
        fin.insert(0)
        advance.frontier(g, fin, None, lambda s, d, e, w: np.ones(s.size, bool))
        names = [c.name for c in queue.profile.costs]
        # the 2LB's offsets kernel, then one dependent kernel for layer 2
        assert names == ["advance.frontier.offsets", "advance.frontier.offsets.l2", "advance.frontier"]

    @pytest.mark.parametrize("bits", [32, 64])
    def test_summary_writes_use_the_word_width(self, queue, bits):
        """Each summary layer's advance write is charged in its own words:
        the 2LB's plain store, then one atomic write per tree layer."""
        from repro.graph.builder import from_edges
        from repro.operators import advance

        n = 5000
        g = from_edges(queue, np.zeros(n - 1, np.int64), np.arange(1, n))
        fin = make_frontier(queue, n, layout="tree", n_layers=4, bits=bits)
        fout = make_frontier(queue, n, layout="tree", n_layers=4, bits=bits)
        fin.insert(0)
        wl = advance.frontier_workload(g, fin, fout, lambda s, d, e, w: np.ones(s.size, bool))
        streams = {s.label: s for s in wl.streams}
        for label in ("out.bitmap", "out.l2", "out.layer2", "out.layer3"):
            assert streams[label].item_bytes == bits // 8, label
            assert streams[label].is_write


@settings(max_examples=30, deadline=None)
@given(
    inserts=st.lists(st.integers(0, 999), max_size=60),
    removes=st.lists(st.integers(0, 999), max_size=60),
    n_layers=st.integers(1, 4),
)
def test_tree_invariant_property(inserts, removes, n_layers):
    """Per-layer summary invariant holds under arbitrary mutation at any depth."""
    queue = Queue(capacity_limit=0)
    t = BitmapFrontier(queue, 1000, n_layers=n_layers)
    t.insert(inserts)
    t.remove(removes)
    assert t.check_invariant()
    assert sorted(t.active_elements()) == sorted(set(inserts) - set(removes))
