"""Strict mode: guard canaries, poisoned frees, per-kernel frontier checks,
and the no-overhead-when-off guarantee."""

import numpy as np
import pytest

from repro.algorithms import bfs
from repro.checking.invariants import InvariantChecker, strict_mode
from repro.errors import InvariantViolation
from repro.frontier.bitmap import BitmapFrontier
from repro.graph.builder import from_edges
from repro.sycl import Queue


@pytest.fixture
def quiet_queue():
    return Queue(capacity_limit=0, enable_profiling=False)


class TestCanaries:
    def test_overflow_write_is_caught(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=4, poison=False)
        arr = q.malloc_shared((16,), np.int64, label="victim", fill=0)
        alloc = q.memory.live_allocations[-1]
        alloc.guard_base[-1] = 7  # simulated out-of-range write past the end
        with pytest.raises(InvariantViolation, match="overflow.*victim"):
            q.memory.check_canaries()

    def test_underflow_write_is_caught(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=4, poison=False)
        q.malloc_shared((16,), np.float64, label="victim", fill=0.0)
        alloc = q.memory.live_allocations[-1]
        alloc.guard_base[0] = 3.14
        with pytest.raises(InvariantViolation, match="underflow"):
            q.memory.check_canaries()

    def test_free_checks_canaries(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=2, poison=False)
        arr = q.malloc_shared((8,), np.int32, label="victim")
        q.memory.live_allocations[-1].guard_base[-1] = 9
        with pytest.raises(InvariantViolation):
            q.free(arr)

    def test_in_range_writes_never_trip(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=8)
        arr = q.malloc_shared((32,), np.int64, label="ok", fill=0)
        arr[:] = np.arange(32)
        arr[0], arr[-1] = -5, 99
        q.memory.check_canaries()
        q.free(arr)

    def test_guard_preserves_fill_and_shape(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=8)
        arr = q.malloc_shared((4, 5), np.float64, label="2d", fill=2.5)
        assert arr.shape == (4, 5) and (arr == 2.5).all()


class TestPoisonOnFree:
    def test_float_buffers_become_nan(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=0, poison=True)
        arr = q.malloc_shared((8,), np.float64, fill=1.0)
        view = arr  # a use-after-free alias
        q.free(arr)
        assert np.isnan(view).all()

    def test_int_buffers_become_extreme(self, quiet_queue):
        q = quiet_queue
        q.memory.enable_strict(guard=0, poison=True)
        arr = q.malloc_shared((8,), np.int64, fill=3)
        view = arr
        q.free(arr)
        assert (np.asarray(view) == np.iinfo(np.int64).min // 2).all()

    def test_no_poison_when_disabled(self, quiet_queue):
        q = quiet_queue
        arr = q.malloc_shared((8,), np.float64, fill=1.0)
        view = arr
        q.free(arr)
        assert (np.asarray(view) == 1.0).all()  # stale but untouched


class TestPerKernelChecks:
    def test_clean_bfs_passes_under_strict_mode(self, quiet_queue):
        g = from_edges(quiet_queue, [0, 1, 2], [1, 2, 3])
        with strict_mode(quiet_queue) as checker:
            result = bfs(g, 0)
        assert list(result.distances) == [0, 1, 2, 3]
        assert checker.stats.kernels_checked > 0
        assert checker.stats.frontier_checks > 0
        assert checker.stats.frontiers_registered >= 2

    def test_corrupted_frontier_caught_at_next_kernel(self, quiet_queue):
        q = quiet_queue
        g = from_edges(q, [0, 1], [1, 2])
        with strict_mode(q):
            f = BitmapFrontier(q, 100, n_layers=2)
            f.insert([3])
            # corrupt layer 1 directly, bypassing insert: layer 2 goes stale
            np.asarray(f.words)[2] |= 1
            with pytest.raises(InvariantViolation, match="BitmapFrontier"):
                bfs(g, 0)

    def test_check_now_outside_kernels(self, quiet_queue):
        q = quiet_queue
        with strict_mode(q) as checker:
            f = BitmapFrontier(q, 100, n_layers=2)
            np.asarray(f.words)[0] = 1  # layer 2 not updated
            with pytest.raises(InvariantViolation):
                checker.check_now(q)

    def test_every_n_skips_kernels(self, quiet_queue):
        q = quiet_queue
        g = from_edges(q, [0, 1, 2, 3], [1, 2, 3, 4])
        with strict_mode(q, every=3) as checker:
            bfs(g, 0)
        assert len(checker.stats.kernels_by_name) < checker.stats.kernels_checked

    def test_dead_frontiers_are_pruned(self, quiet_queue):
        checker = InvariantChecker()
        f = BitmapFrontier(quiet_queue, 64, n_layers=2)
        checker.register(f)
        assert len(checker.live_frontiers()) == 1
        del f
        assert len(checker.live_frontiers()) == 0


class TestZeroOverheadOff:
    def test_defaults(self, quiet_queue):
        assert quiet_queue.invariant_checker is None
        assert quiet_queue.memory._guard == 0
        assert quiet_queue.memory.poison_on_free is False

    def test_plain_malloc_has_no_guard(self, quiet_queue):
        quiet_queue.malloc_shared((8,), np.int64)
        assert quiet_queue.memory.live_allocations[-1].guard_base is None

    def test_strict_mode_restores_everything(self, quiet_queue):
        q = quiet_queue
        with strict_mode(q, guard=4):
            assert q.invariant_checker is not None
            assert q.memory._guard == 4
        assert q.invariant_checker is None
        assert q.memory._guard == 0
        assert q.memory.poison_on_free is False

    def test_guard_added_inside_still_checked_on_free_outside(self, quiet_queue):
        q = quiet_queue
        with strict_mode(q, guard=4, poison=False):
            arr = q.malloc_shared((8,), np.int64, label="escapee", fill=0)
        q.memory.live_allocations[-1].guard_base[-1] = 1
        with pytest.raises(InvariantViolation):
            q.free(arr)

    def test_nested_checker_restored_to_outer(self, quiet_queue):
        q = quiet_queue
        with strict_mode(q) as outer:
            with strict_mode(q) as inner:
                assert q.invariant_checker is inner
            assert q.invariant_checker is outer
