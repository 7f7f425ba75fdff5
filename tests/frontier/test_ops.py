"""Frontier operators: union / intersection / subtraction (paper §4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrontierError
from repro.frontier import (
    frontier_intersection,
    frontier_subtraction,
    frontier_union,
    make_frontier,
)
from repro.sycl import Queue

LAYOUTS = ["bitmap", "2lb", "vector", "boolmap"]


def _trio(queue, layout, n=500):
    return (
        make_frontier(queue, n, layout=layout),
        make_frontier(queue, n, layout=layout),
        make_frontier(queue, n, layout=layout),
    )


@pytest.mark.parametrize("layout", LAYOUTS)
class TestSemantics:
    def test_union(self, queue, layout):
        a, b, out = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([3, 4])
        frontier_union(a, b, out)
        assert sorted(out.active_elements()) == [1, 2, 3, 4]

    def test_intersection(self, queue, layout):
        a, b, out = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([2, 3, 4])
        frontier_intersection(a, b, out)
        assert sorted(out.active_elements()) == [2, 3]

    def test_subtraction(self, queue, layout):
        a, b, out = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([2])
        frontier_subtraction(a, b, out)
        assert sorted(out.active_elements()) == [1, 3]

    def test_output_overwritten(self, queue, layout):
        a, b, out = _trio(queue, layout)
        out.insert([99])
        a.insert([1])
        frontier_union(a, b, out)
        assert sorted(out.active_elements()) == [1]

    def test_empty_operands(self, queue, layout):
        a, b, out = _trio(queue, layout)
        frontier_intersection(a, b, out)
        assert out.empty()


class TestKernelAccounting:
    def test_bitmap_path_submits_word_parallel_kernel(self, queue):
        a, b, out = _trio(queue, "2lb")
        a.insert([1])
        b.insert([2])
        frontier_union(a, b, out)
        names = [c.name for c in queue.profile.costs]
        assert "frontier.union" in names

    def test_generic_path_for_vector(self, queue):
        a, b, out = _trio(queue, "vector")
        a.insert([1])
        frontier_union(a, b, out)
        names = [c.name for c in queue.profile.costs]
        assert "frontier.union.generic" in names

    def test_size_mismatch_rejected(self, queue):
        a = make_frontier(queue, 100, layout="2lb")
        b = make_frontier(queue, 200, layout="2lb")
        out = make_frontier(queue, 100, layout="2lb")
        with pytest.raises(FrontierError):
            frontier_union(a, b, out)

    def test_2lb_result_keeps_invariant(self, queue):
        a, b, out = _trio(queue, "2lb")
        a.insert(np.arange(0, 500, 3))
        b.insert(np.arange(0, 500, 7))
        for op in (frontier_union, frontier_intersection, frontier_subtraction):
            op(a, b, out)
            assert out.check_invariant()


def _capture_workloads(monkeypatch, queue):
    """Record every KernelWorkload submitted to ``queue``."""
    captured = []
    orig = queue.submit

    def spy(workload):
        captured.append(workload)
        return orig(workload)

    monkeypatch.setattr(queue, "submit", spy)
    return captured


def _stream(workload, label):
    matches = [s for s in workload.streams if s.label == label]
    assert matches, f"no stream labeled {label!r} in {workload.name}"
    return matches[0]


class TestStreamWidths:
    """Regression tests: modeled streams honor each layout's real width."""

    def test_generic_path_boolmap_streams_byte_flags(self, queue, monkeypatch):
        a, b, out = _trio(queue, "boolmap")
        a.insert([1, 2, 3])
        b.insert([3, 4])
        captured = _capture_workloads(monkeypatch, queue)
        frontier_union(a, b, out)
        (wl,) = captured
        assert _stream(wl, "lhs.elems").item_bytes == 1
        assert _stream(wl, "rhs.elems").item_bytes == 1
        assert _stream(wl, "out.elems").item_bytes == 1

    def test_generic_path_vector_streams_vertex_slots(self, queue, monkeypatch):
        from repro.types import vertex_t

        a, b, out = _trio(queue, "vector")
        a.insert([1, 2, 3])
        b.insert([3, 4])
        captured = _capture_workloads(monkeypatch, queue)
        frontier_union(a, b, out)
        (wl,) = captured
        width = np.dtype(vertex_t).itemsize
        assert _stream(wl, "lhs.elems").item_bytes == width
        assert _stream(wl, "out.elems").item_bytes == width

    def test_generic_path_bitmap_operand_streams_its_word_width(self, queue, monkeypatch):
        # mixed combo forces the generic path; the 64-bit bitmap operand
        # must be charged 8-byte words, not the old hardcoded 4 B
        a = make_frontier(queue, 500, layout="2lb", bits=64)
        b = make_frontier(queue, 500, layout="vector")
        out = make_frontier(queue, 500, layout="vector")
        a.insert([0, 64, 128])
        b.insert([64])
        captured = _capture_workloads(monkeypatch, queue)
        frontier_union(a, b, out)
        (wl,) = captured
        lhs = _stream(wl, "lhs.elems")
        assert lhs.item_bytes == a.words.dtype.itemsize == 8
        # and the addresses are word indices, not element ids
        assert set(np.asarray(lhs.addresses)) == {0, 1, 2}

    def test_bitwise_path_streams_2lb_summary_writes(self, queue, monkeypatch):
        a, b, out = _trio(queue, "2lb")
        a.insert(np.arange(0, 500, 3))
        b.insert(np.arange(0, 500, 7))
        captured = _capture_workloads(monkeypatch, queue)
        frontier_union(a, b, out)
        (wl,) = captured
        l2 = _stream(wl, "out.layer1")
        assert l2.is_write
        assert l2.item_bytes == out.layers[1].dtype.itemsize

    def test_bitwise_path_streams_every_mlb_summary_layer(self, queue, monkeypatch):
        a = make_frontier(queue, 5000, layout="tree")
        b = make_frontier(queue, 5000, layout="tree")
        out = make_frontier(queue, 5000, layout="tree")
        a.insert(np.arange(0, 5000, 3))
        b.insert(np.arange(0, 5000, 7))
        captured = _capture_workloads(monkeypatch, queue)
        frontier_union(a, b, out)
        (wl,) = captured
        for depth, layer in enumerate(out.layers[1:], start=1):
            s = _stream(wl, f"out.layer{depth}")
            assert s.is_write
            assert s.item_bytes == layer.dtype.itemsize

    def test_flat_bitmap_has_no_summary_stream(self, queue, monkeypatch):
        a, b, out = _trio(queue, "bitmap")
        a.insert([1])
        b.insert([2])
        captured = _capture_workloads(monkeypatch, queue)
        frontier_union(a, b, out)
        (wl,) = captured
        assert [s.label for s in wl.streams] == ["lhs.words", "rhs.words", "out.words"]


class TestCrossQueue:
    def test_cross_queue_operand_rejected(self):
        qa, qb = Queue(capacity_limit=0), Queue(capacity_limit=0)
        a = make_frontier(qa, 100, layout="2lb")
        b = make_frontier(qb, 100, layout="2lb")
        out = make_frontier(qa, 100, layout="2lb")
        with pytest.raises(FrontierError, match="different queues"):
            frontier_union(a, b, out)

    def test_cross_queue_out_rejected(self):
        qa, qb = Queue(capacity_limit=0), Queue(capacity_limit=0)
        a = make_frontier(qa, 100, layout="vector")
        b = make_frontier(qa, 100, layout="vector")
        out = make_frontier(qb, 100, layout="vector")
        with pytest.raises(FrontierError, match="different queues"):
            frontier_subtraction(a, b, out)


ALL_LAYOUTS = LAYOUTS + ["tree"]


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
class TestAliasing:
    """``out`` aliasing an input must behave like an out-of-place op."""

    def test_union_out_is_lhs(self, queue, layout):
        a, b, _ = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([3, 4])
        frontier_union(a, b, a)
        assert sorted(a.active_elements()) == [1, 2, 3, 4]

    def test_subtraction_out_is_lhs(self, queue, layout):
        a, b, _ = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([2])
        frontier_subtraction(a, b, a)
        assert sorted(a.active_elements()) == [1, 3]

    def test_intersection_out_is_rhs(self, queue, layout):
        a, b, _ = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([2, 3, 4])
        frontier_intersection(a, b, b)
        assert sorted(b.active_elements()) == [2, 3]

    def test_subtraction_out_is_rhs(self, queue, layout):
        a, b, _ = _trio(queue, layout)
        a.insert([1, 2, 3])
        b.insert([2])
        frontier_subtraction(a, b, b)
        assert sorted(b.active_elements()) == [1, 3]


@pytest.mark.parametrize("la", ALL_LAYOUTS)
@pytest.mark.parametrize("lb", ["bitmap", "vector"])
@pytest.mark.parametrize("lout", ["2lb", "boolmap"])
class TestMixedLayouts:
    """Any bitmap/vector operand mix must agree with set semantics."""

    def test_mixed_union_and_subtraction(self, queue, la, lb, lout):
        a = make_frontier(queue, 300, layout=la)
        b = make_frontier(queue, 300, layout=lb)
        out = make_frontier(queue, 300, layout=lout)
        xs, ys = {1, 5, 64, 65, 200}, {5, 66, 200, 299}
        a.insert(sorted(xs))
        b.insert(sorted(ys))
        frontier_union(a, b, out)
        assert set(out.active_elements()) == xs | ys
        frontier_subtraction(a, b, out)
        assert set(out.active_elements()) == xs - ys
        frontier_intersection(a, b, out)
        assert set(out.active_elements()) == xs & ys


@settings(max_examples=40, deadline=None)
@given(
    xs=st.sets(st.integers(0, 299), max_size=80),
    ys=st.sets(st.integers(0, 299), max_size=80),
    layout=st.sampled_from(LAYOUTS),
)
def test_operator_algebra_matches_sets(xs, ys, layout):
    """Union/intersection/subtraction agree with Python set algebra."""
    queue = Queue(capacity_limit=0, enable_profiling=False)
    a = make_frontier(queue, 300, layout=layout)
    b = make_frontier(queue, 300, layout=layout)
    out = make_frontier(queue, 300, layout=layout)
    a.insert(sorted(xs))
    b.insert(sorted(ys))
    frontier_union(a, b, out)
    assert set(out.active_elements()) == xs | ys
    frontier_intersection(a, b, out)
    assert set(out.active_elements()) == xs & ys
    frontier_subtraction(a, b, out)
    assert set(out.active_elements()) == xs - ys
