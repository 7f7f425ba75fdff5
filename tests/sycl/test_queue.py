"""Queue submission, events, profiling accumulation, backends."""

import numpy as np
import pytest

from repro.perfmodel.cost import KernelWorkload
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

    def test_profiling_disabled(self):
        q = Queue(enable_profiling=False, capacity_limit=0)
        ev = q.submit(_workload())
        assert ev.cost is None
        assert ev.profiling_ns() == 0.0
        assert q.elapsed_ns == 0.0

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
