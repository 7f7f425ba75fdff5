"""Frontier traffic is charged at each layout's *actual* word width.

Regression tests for the hardcoded ``// 64`` word addressing that used to
mischarge 32-bit bitmaps in filter and the edge-advance variants, and for
the bitmap-word streams that used to be charged against layouts that have
no bitmap words at all (vector, boolmap).
"""

import numpy as np
import pytest

from repro.frontier import FrontierView, make_frontier
from repro.operators import filter as filter_op
from repro.operators.advance import charge_frontier_probe
from repro.operators.edge_advance import edges_to_vertices, vertices_to_edges
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.ndrange import WorkgroupGeometry


def capture_submits(queue):
    """Record every workload submitted to ``queue``."""
    captured = []
    original = queue.submit

    def wrapper(workload, *args, **kwargs):
        captured.append(workload)
        return original(workload, *args, **kwargs)

    queue.submit = wrapper
    return captured


def stream_by_label(wl, label):
    matches = [s for s in wl.streams if s.label == label]
    assert matches, f"no stream {label!r} in {[s.label for s in wl.streams]}"
    return matches[0]


def probe_workload():
    return KernelWorkload(
        name="probe",
        geometry=WorkgroupGeometry(global_size=64, workgroup_size=64, subgroup_size=32),
        active_lanes=64,
    )


class TestChargeFrontierProbe:
    @pytest.mark.parametrize("bits", [32, 64])
    def test_bitmap_uses_actual_width(self, queue, bits):
        f = make_frontier(queue, 1000, layout="2lb", bits=bits)
        ids = np.array([0, 63, 64, 640], dtype=np.int64)
        wl = probe_workload()
        charge_frontier_probe(wl, f, ids, region=1, label="probe.words")
        s = stream_by_label(wl, "probe.words")
        assert np.array_equal(s.addresses, ids // bits)
        assert s.item_bytes == f.words.dtype.itemsize == bits // 8

    def test_boolmap_streams_bytes_not_words(self, queue):
        f = make_frontier(queue, 1000, layout="boolmap")
        ids = np.array([5, 900], dtype=np.int64)
        wl = probe_workload()
        charge_frontier_probe(wl, f, ids, region=1, label="probe.words")
        s = stream_by_label(wl, "probe.words")
        assert np.array_equal(s.addresses, ids)  # element-addressed, no // 64
        assert s.item_bytes == 1

    def test_vector_streams_slots(self, queue):
        f = make_frontier(queue, 1000, layout="vector")
        ids = np.array([5, 900, 7], dtype=np.int64)
        wl = probe_workload()
        charge_frontier_probe(wl, f, ids, region=1, label="probe.words")
        s = stream_by_label(wl, "probe.words")
        assert np.array_equal(s.addresses, np.arange(ids.size))
        assert s.item_bytes == 4


class TestFilterWordWidths:
    def _run_inplace(self, queue, layout, **kwargs):
        from repro.graph.builder import from_edges

        g = from_edges(queue, [0, 1], [1, 2])
        f = make_frontier(queue, 1000, layout=layout, **kwargs)
        f.insert([1, 40, 65, 700])
        captured = capture_submits(queue)
        filter_op.inplace(g, f, lambda ids: ids < 50)  # drops 65 and 700
        return next(w for w in captured if w.name == "filter.inplace")

    def test_bitmap32_write_addresses(self, queue):
        wl = self._run_inplace(queue, "2lb", bits=32)
        s = stream_by_label(wl, "filter.write")
        assert np.array_equal(np.sort(s.addresses), [65 // 32, 700 // 32])
        assert s.item_bytes == 4
        assert wl.atomics == 2  # word-level RMW per removed element

    def test_bitmap64_write_addresses(self, queue):
        wl = self._run_inplace(queue, "bitmap", bits=64)
        s = stream_by_label(wl, "filter.write")
        assert np.array_equal(np.sort(s.addresses), [65 // 64, 700 // 64])
        assert s.item_bytes == 8

    def test_boolmap_write_is_bytes_without_atomics(self, queue):
        wl = self._run_inplace(queue, "boolmap")
        s = stream_by_label(wl, "filter.write")
        assert np.array_equal(np.sort(s.addresses), [65, 700])
        assert s.item_bytes == 1
        assert wl.atomics == 0  # idempotent byte stores

    def test_vector_write_has_no_word_stream(self, queue):
        wl = self._run_inplace(queue, "vector")
        s = stream_by_label(wl, "filter.write")
        assert np.array_equal(s.addresses, np.arange(2))  # compacted slots
        assert wl.atomic_targets == 1  # single tail pointer


class TestEdgeAdvanceWordWidths:
    @pytest.fixture
    def tiny(self, queue):
        from repro.graph.builder import from_edges

        return from_edges(queue, [0, 0, 1, 2], [1, 2, 3, 3])

    def test_e2v_charges_edge_frontier_at_its_width(self, queue, tiny):
        n_e = tiny.get_edge_count()
        ef = make_frontier(queue, n_e, FrontierView.EDGE, layout="bitmap", bits=32)
        vf = make_frontier(queue, tiny.get_vertex_count(), layout="bitmap", bits=32)
        ef.insert(np.arange(n_e))
        captured = capture_submits(queue)
        edges_to_vertices(tiny, ef, vf, lambda s, d, e, w: np.ones(s.size, bool))
        wl = next(w for w in captured if w.name == "advance.e2v")
        s = stream_by_label(wl, "in.edges")
        assert np.array_equal(s.addresses, np.arange(n_e) // 32)
        assert s.item_bytes == 4
        out = stream_by_label(wl, "out.bitmap")
        assert s.item_bytes == vf.words.dtype.itemsize
        assert out.addresses.max() <= tiny.get_vertex_count() // 32

    def test_v2e_out_words_use_actual_width(self, queue, tiny):
        n_e = tiny.get_edge_count()
        ef = make_frontier(queue, n_e, FrontierView.EDGE, layout="bitmap", bits=64)
        vf = make_frontier(queue, tiny.get_vertex_count(), layout="bitmap", bits=64)
        vf.insert([0, 1, 2])
        captured = capture_submits(queue)
        vertices_to_edges(tiny, vf, ef, lambda s, d, e, w: np.ones(s.size, bool))
        wl = next(w for w in captured if w.name == "advance.v2e")
        out = stream_by_label(wl, "out.edges")
        assert out.item_bytes == 8  # 64-bit words, not hardcoded
        assert np.array_equal(np.sort(np.unique(out.addresses)), np.unique(np.arange(n_e) // 64))

    def test_e2v_vector_out_has_no_word_stream(self, queue, tiny):
        n_e = tiny.get_edge_count()
        ef = make_frontier(queue, n_e, FrontierView.EDGE, layout="bitmap", bits=32)
        vf = make_frontier(queue, tiny.get_vertex_count(), layout="vector")
        ef.insert(np.arange(n_e))
        captured = capture_submits(queue)
        edges_to_vertices(tiny, ef, vf, lambda s, d, e, w: np.ones(s.size, bool))
        wl = next(w for w in captured if w.name == "advance.e2v")
        assert not [s for s in wl.streams if s.label == "out.bitmap"]
