"""Queue submission, events, profiling accumulation, backends."""

import gc
import weakref

import numpy as np
import pytest

from repro.perfmodel.cost import LARGE_STREAM, KernelWorkload
from repro.sycl import Backend, NDRange, Queue, get_device
from repro.sycl.backend import backend_traits


def _workload(name="k", lanes=1024, streams=True):
    geom = NDRange(1024, 128).resolve(256, 32)
    wl = KernelWorkload(name, geom, active_lanes=lanes)
    if streams:
        wl.add_stream(np.arange(500), 4, region=1)
    return wl


class TestSubmission:
    def test_submit_returns_completed_event(self, queue):
        ev = queue.submit(_workload())
        assert ev.is_complete
        assert ev.wait() is ev

    def test_event_carries_cost(self, queue):
        ev = queue.submit(_workload())
        assert ev.cost is not None
        assert ev.profiling_ns() > 0

    def test_sequence_numbers(self, queue):
        e1 = queue.submit(_workload())
        e2 = queue.submit(_workload())
        assert e2.seq == e1.seq + 1

    def test_elapsed_accumulates(self, queue):
        queue.submit(_workload())
        t1 = queue.elapsed_ns
        queue.submit(_workload())
        assert queue.elapsed_ns > t1

    def test_reset_profile(self, queue):
        queue.submit(_workload())
        queue.reset_profile()
        assert queue.elapsed_ns == 0.0


class TestDeviceCoupling:
    def test_default_device_is_v100s(self):
        assert Queue(capacity_limit=0).device.spec.name == "Tesla V100S"

    def test_vram_capacity_from_spec(self):
        q = Queue(get_device("v100s"))
        assert q.memory.capacity_bytes == 32 * 1024**3

    def test_capacity_override(self):
        q = Queue(capacity_limit=1000)
        assert q.memory.capacity_bytes == 1000

    def test_capacity_zero_disables(self):
        q = Queue(capacity_limit=0)
        assert q.memory.capacity_bytes is None

    def test_inspect_delegates_to_device(self, queue):
        assert queue.inspect().bitmap_bits == 32

    def test_malloc_passthrough(self, queue):
        a = queue.malloc_shared((10,), np.uint32, "x")
        assert queue.memory.bytes_in_use == 40
        queue.free(a)
        assert queue.memory.bytes_in_use == 0


class TestScope:
    """``Queue.scope()`` frees what the block allocated, exceptions
    included, and nothing else."""

    def _labels(self, queue):
        return [a.label for a in queue.memory.live_allocations]

    def test_frees_block_allocations_in_allocation_order(self, queue):
        keep = queue.malloc_shared((4,), np.int64, "keep")
        with queue.scope():
            queue.malloc_shared((8,), np.int64, "a")
            queue.malloc_shared((2,), np.float64, "b")
        assert self._labels(queue) == ["keep"]
        assert queue.memory.bytes_in_use == keep.nbytes
        frees = [e.label for e in queue.memory.timeline if e.delta < 0]
        assert frees == ["free:a", "free:b"]

    def test_frees_on_exception(self, queue):
        with pytest.raises(RuntimeError):
            with queue.scope():
                queue.malloc_shared((8,), np.int64, "doomed")
                raise RuntimeError("cut short")
        assert queue.memory.bytes_in_use == 0
        assert self._labels(queue) == []

    def test_explicit_free_inside_is_not_repeated(self, queue):
        with queue.scope():
            queue.free(queue.malloc_shared((8,), np.int64, "early"))
            queue.malloc_shared((8,), np.int64, "late")
        frees = [e.label for e in queue.memory.timeline if e.delta < 0]
        assert frees == ["free:early", "free:late"]

    def test_nested_scope_frees_only_its_own(self, queue):
        with queue.scope():
            queue.malloc_shared((8,), np.int64, "outer")
            with queue.scope():
                queue.malloc_shared((8,), np.int64, "inner")
            assert self._labels(queue) == ["outer"]
        assert self._labels(queue) == []


class TestBackendTraits:
    def test_opencl_slower_launch_than_level_zero(self):
        assert (
            backend_traits(Backend.OPENCL).launch_overhead_us
            > backend_traits(Backend.LEVEL_ZERO).launch_overhead_us
        )

    def test_rocm_usm_penalty_highest(self):
        # Xnack-driven USM on AMD is suboptimal (paper §3.3)
        penalties = {b: backend_traits(b).usm_penalty for b in Backend}
        assert max(penalties, key=penalties.get) is Backend.ROCM

    def test_spec_constants_native_on_intel_only(self):
        # paper §4.4: efficient specialization constants mainly on Intel
        assert backend_traits(Backend.LEVEL_ZERO).spec_constants_native
        assert backend_traits(Backend.OPENCL).spec_constants_native
        assert not backend_traits(Backend.CUDA).spec_constants_native

    def test_same_kernel_slower_on_opencl(self):
        t = {}
        for dev in ("max1100", "max1100-opencl"):
            q = Queue(get_device(dev), capacity_limit=0)
            q.submit(_workload(streams=False))
            t[dev] = q.elapsed_ns
        assert t["max1100-opencl"] > t["max1100"]


class TestProfileLog:
    def test_summaries_by_kernel_name(self, queue):
        queue.submit(_workload("a"))
        queue.submit(_workload("a"))
        queue.submit(_workload("b"))
        assert queue.profile.summaries["a"].launches == 2
        assert queue.profile.summaries["b"].launches == 1

    def test_prefix_filtering(self, queue):
        queue.submit(_workload("advance.frontier"))
        queue.submit(_workload("compute.execute"))
        assert len(queue.profile.kernels("advance")) == 1
        assert queue.profile.time_ns("advance") > 0

    def test_totals_are_running_sums(self, queue):
        """Totals add kernel costs one by one in log order, and an empty
        log reports int 0 as a sum over no costs would."""
        assert queue.profile.total_ns == 0 and type(queue.profile.total_ns) is int
        for name in ("a", "b", "a", "c"):
            queue.submit(_workload(name))
        folded = 0
        for cost in queue.profile.costs:
            folded += cost.time_ns
        assert queue.elapsed_ns == folded
        assert queue.profile.total_dram_bytes == sum(c.dram_bytes for c in queue.profile.costs)
        queue.reset_profile()
        assert queue.elapsed_ns == 0

    def test_peak_metrics(self, queue):
        queue.submit(_workload("advance.frontier"))
        assert 0 <= queue.profile.peak_l1_hit_rate("advance") <= 1
        assert 0 <= queue.profile.peak_occupancy("advance") <= 1


class TestBatchedPricing:
    """Submitting queues a kernel; the host's next read of the clock, the
    log or an event's cost prices everything queued since the last one."""

    def test_stream_overwritten_after_submit_keeps_its_cost(self, queue):
        reference = Queue(capacity_limit=0)
        reference.submit(_workload())
        buffer = np.arange(500)
        wl = _workload(streams=False)
        wl.add_stream(buffer, 4, region=1)
        ev = queue.submit(wl)
        buffer[:] = np.random.default_rng(0).integers(0, 1 << 30, buffer.size)
        assert ev.cost == reference.profile.costs[0]

    @pytest.mark.parametrize("n", [500, LARGE_STREAM + 1])
    def test_pending_kernel_holds_no_caller_array(self, queue, n):
        """The pending batch keeps a copy of a stream (or, past
        LARGE_STREAM, its counts), never the workload: the caller's array
        is freed while the kernel waits to be priced."""
        buffer = np.arange(n)
        alive = weakref.ref(buffer)
        wl = _workload(streams=False)
        wl.add_stream(buffer, 4, region=1)
        expected = Queue(capacity_limit=0).submit(wl).cost
        ev = queue.submit(wl)
        del wl, buffer
        gc.collect()
        assert alive() is None
        assert queue.profile._pending is not None
        assert ev.cost == expected

    def test_event_cost_is_the_logged_cost(self, queue):
        events = [queue.submit(_workload(name)) for name in ("a", "b", "c")]
        assert events[1].cost is queue.profile.costs[1]
        assert all(ev.cost is cost for ev, cost in zip(events, queue.profile.costs))

    def test_totals_are_the_left_to_right_sum_over_batches(self, queue):
        for k in range(7):
            queue.submit(_workload(lanes=100 + k))
            if k == 3:
                queue.elapsed_ns  # a sync point in the middle
        folded = 0
        for cost in queue.profile.costs:
            folded += cost.time_ns
        assert queue.elapsed_ns == folded
        assert len(queue.profile.costs) == 7

    def test_reset_profile_with_kernels_pending(self, queue):
        ev = queue.submit(_workload())
        old = queue.profile
        queue.reset_profile()
        assert queue.elapsed_ns == 0 and queue.profile.costs == []
        assert ev.cost is old.costs[0] and ev.profiling_ns() > 0

    def test_pending_accesses_past_the_cap_are_priced(self, queue, monkeypatch):
        from repro.sycl import profiling

        monkeypatch.setattr(profiling, "PENDING_ACCESS_CAP", 1200)
        priced = []
        price = queue.cost_model.price
        monkeypatch.setattr(queue.cost_model, "price", lambda batch: priced.append(len(batch)) or price(batch))
        queue.submit(_workload())
        queue.submit(_workload())
        assert priced == []
        queue.submit(_workload())  # 1500 pending accesses
        assert priced == [3]
        assert len(queue.profile.costs) == 3
        assert priced == [3]

    def test_event_cost_is_the_logged_cost_across_flushes(self, queue):
        """Costs are one object per kernel however the log is read: an
        event first, the log first, across several priced batches."""
        first = [queue.submit(_workload(name)) for name in ("a", "b")]
        queue.elapsed_ns
        second = [queue.submit(_workload(name)) for name in ("c", "d", "e")]
        queue.elapsed_ns
        early = second[1].cost
        costs = queue.profile.costs
        assert [c.name for c in costs] == ["a", "b", "c", "d", "e"]
        assert early is costs[3]
        assert all(ev.cost is cost for ev, cost in zip(first + second, costs))
        third = queue.submit(_workload("f"))
        assert queue.profile.costs[:5] == costs[:5]
        assert third.cost is queue.profile.costs[5]

    def test_summaries_and_kernels_after_the_build(self, queue):
        names = ["advance.frontier", "compute", "advance.frontier.offsets", "compute"]
        for k, name in enumerate(names):
            queue.submit(_workload(name, lanes=100 * (k + 1)))
        queue.elapsed_ns
        costs = queue.profile.costs
        advance = queue.profile.kernels("advance")
        assert len(advance) == 2 and advance[0] is costs[0] and advance[1] is costs[2]
        compute = queue.profile.summaries["compute"]
        assert compute.launches == 2
        assert compute.total_ns == 0.0 + costs[1].time_ns + costs[3].time_ns
        assert compute.total_dram_bytes == costs[1].dram_bytes + costs[3].dram_bytes
        assert compute.peak_occupancy == max(costs[1].occupancy, costs[3].occupancy)
        before = compute.total_ns
        queue.submit(_workload("compute", lanes=900))
        assert queue.profile.summaries["compute"].launches == 3
        assert compute.total_ns == before + queue.profile.costs[4].time_ns
        assert queue.profile.time_ns("compute") == sum(queue.profile.costs[k].time_ns for k in (1, 3, 4))

    def test_totals_are_the_left_to_right_sum_of_costs_read_later(self, queue):
        """The clock is read before any cost is: the running totals still
        add the costs in submit order, one at a time."""
        clocks = []
        for k in range(9):
            queue.submit(_workload(lanes=64 * k + 1))
            if k % 4 == 1:
                clocks.append(queue.elapsed_ns)
        clocks.append(queue.elapsed_ns)
        folded, partial = 0, []
        for k, cost in enumerate(queue.profile.costs):
            folded += cost.time_ns
            if k % 4 == 1:
                partial.append(folded)
        assert clocks == partial + [folded]
        assert type(queue.elapsed_ns) is float
        assert queue.profile.total_dram_bytes == sum(c.dram_bytes for c in queue.profile.costs)

    def test_reset_profile_with_priced_and_pending_kernels(self, queue):
        priced = queue.submit(_workload("a"))
        queue.elapsed_ns  # priced, no cost read yet
        pending = queue.submit(_workload("b"))
        old = queue.profile
        queue.reset_profile()
        fresh = queue.submit(_workload("c"))
        assert [c.name for c in old.costs] == ["a", "b"]
        assert priced.cost is old.costs[0] and pending.cost is old.costs[1]
        assert [c.name for c in queue.profile.costs] == ["c"]
        assert fresh.cost is queue.profile.costs[0]
        assert queue.elapsed_ns == fresh.cost.time_ns

    def test_tracer_sees_each_cost_at_submit(self, queue):
        tracer = queue.enable_tracing()
        with queue.span("outer"):
            events = [queue.submit(_workload(name)) for name in ("a", "b")]
            kernels = tracer.current.kernels
            assert [k.cost for k in kernels] == [ev.cost for ev in events]
            assert [k.dur_ns for k in kernels] == [ev.cost.time_ns for ev in events]
            assert kernels[1].ts_ns == events[0].cost.time_ns

    def test_fault_injector_clock_includes_every_earlier_kernel(self, queue):
        from repro.faults import FaultInjector

        injector = FaultInjector([], seed=0)
        clocks = []
        check = injector.check
        injector.check = lambda site, now_ns, **kw: clocks.append(now_ns) or check(site, now_ns, **kw)
        queue.enable_fault_injection(injector)
        events = [queue.submit(_workload(lanes=128 * k)) for k in (1, 2, 3)]
        expected, clock = [], 0
        for ev in events:
            expected.append(clock)
            clock += ev.cost.time_ns
        assert clocks == expected
