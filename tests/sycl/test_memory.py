"""USM memory manager: accounting, OOM, timeline."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.sycl.memory import MemoryManager, UsmKind


class TestAllocation:
    def test_malloc_returns_array(self):
        mm = MemoryManager()
        a = mm.malloc_shared((10,), np.uint32)
        assert a.shape == (10,) and a.dtype == np.uint32

    def test_bytes_in_use_tracks_allocations(self):
        mm = MemoryManager()
        mm.malloc_shared((100,), np.uint64)
        assert mm.bytes_in_use == 800
        mm.malloc_device((50,), np.uint32)
        assert mm.bytes_in_use == 1000

    def test_host_allocations_do_not_count(self):
        mm = MemoryManager()
        mm.malloc_host((1000,), np.float64)
        assert mm.bytes_in_use == 0

    def test_fill_zero(self):
        mm = MemoryManager()
        a = mm.malloc_shared((5,), np.int64, fill=0)
        assert (a == 0).all()

    def test_fill_value(self):
        mm = MemoryManager()
        a = mm.malloc_shared((5,), np.int64, fill=-1)
        assert (a == -1).all()

    def test_free_releases(self):
        mm = MemoryManager()
        a = mm.malloc_shared((100,), np.uint64)
        mm.free(a)
        assert mm.bytes_in_use == 0

    def test_peak_survives_free(self):
        mm = MemoryManager()
        a = mm.malloc_shared((100,), np.uint64)
        mm.free(a)
        assert mm.peak_bytes == 800

    def test_double_free_rejected(self):
        mm = MemoryManager()
        a = mm.malloc_shared((10,), np.uint8)
        mm.free(a)
        with pytest.raises(KeyError):
            mm.free(a)

    def test_foreign_array_free_rejected(self):
        mm = MemoryManager()
        with pytest.raises(KeyError):
            mm.free(np.zeros(4))

    def test_live_allocations(self):
        mm = MemoryManager()
        a = mm.malloc_shared((10,), np.uint8, label="keep")
        b = mm.malloc_shared((10,), np.uint8, label="drop")
        mm.free(b)
        live = mm.live_allocations
        assert len(live) == 1 and live[0].label == "keep"

    def test_freed_records_are_dropped(self):
        """After many alloc/free cycles only live records remain, oldest
        first, so the per-request scans stay proportional to live buffers."""
        mm = MemoryManager()
        kept = [mm.malloc_shared((4,), np.uint8, label=f"keep{i}") for i in range(3)]
        for cycle in range(200):
            scratch = [mm.malloc_device((8,), np.uint32, label=f"tmp{cycle}.{j}") for j in range(3)]
            kept.append(mm.malloc_shared((4,), np.uint8, label=f"keep{cycle + 3}"))
            for arr in scratch:
                mm.free(arr)
        freed = kept.pop(1)
        mm.free(freed)
        assert len(mm._allocs) == len(kept) == 202
        labels = [a.label for a in mm.live_allocations]
        assert labels == ["keep0"] + [f"keep{i}" for i in range(2, 203)]
        assert all(a.live for a in mm.live_allocations)
        assert mm.bytes_in_use == 4 * len(kept)
        with pytest.raises(KeyError):
            mm.free(freed)


class TestOOM:
    def test_allocation_over_capacity_raises(self):
        mm = MemoryManager(capacity_bytes=100)
        with pytest.raises(OutOfMemoryError):
            mm.malloc_shared((200,), np.uint8)

    def test_oom_carries_details(self):
        mm = MemoryManager(capacity_bytes=100)
        mm.malloc_shared((60,), np.uint8)
        with pytest.raises(OutOfMemoryError) as ei:
            mm.malloc_shared((60,), np.uint8, label="graph.col_idx")
        err = ei.value
        assert err.requested == 60 and err.in_use == 60 and err.capacity == 100
        assert "graph.col_idx" in str(err)

    def test_freeing_makes_room(self):
        mm = MemoryManager(capacity_bytes=100)
        a = mm.malloc_shared((80,), np.uint8)
        mm.free(a)
        mm.malloc_shared((80,), np.uint8)  # fits again

    def test_no_capacity_means_unlimited(self):
        mm = MemoryManager(capacity_bytes=None)
        mm.malloc_shared((10_000_000,), np.uint8)


class TestTimeline:
    def test_alloc_events_recorded(self):
        mm = MemoryManager()
        mm.malloc_shared((10,), np.uint8, label="x")
        assert mm.timeline[-1].label == "alloc:x"
        assert mm.timeline[-1].total_bytes == 10

    def test_free_events_recorded(self):
        mm = MemoryManager()
        a = mm.malloc_shared((10,), np.uint8, label="x")
        mm.free(a)
        assert mm.timeline[-1].label == "free:x"
        assert mm.timeline[-1].total_bytes == 0

    def test_tick_samples_steady_state(self):
        mm = MemoryManager()
        mm.malloc_shared((10,), np.uint8)
        mm.tick("iter1")
        assert mm.timeline[-1].delta == 0
        assert mm.timeline[-1].total_bytes == 10

    def test_usage_trace_arrays(self):
        mm = MemoryManager()
        a = mm.malloc_shared((10,), np.uint8)
        b = mm.malloc_shared((20,), np.uint8)
        mm.free(a)
        steps, totals = mm.usage_trace()
        assert list(totals) == [10, 30, 20]
        assert list(steps) == [0, 1, 2]

    def test_reset_timeline(self):
        mm = MemoryManager()
        mm.malloc_shared((10,), np.uint8)
        mm.reset_timeline()
        assert mm.timeline == []
        assert mm.bytes_in_use == 10  # usage persists, timeline doesn't
