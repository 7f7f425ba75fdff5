"""Roofline cost model invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.cost import AccessStream, CostModel, KernelWorkload
from repro.sycl.device import amd_mi100, intel_max1100, nvidia_v100s
from repro.sycl.ndrange import NDRange, Range


def _wl(lanes=1024, n_addrs=1000, atomics=0, targets=0, serial=0, name="k"):
    global_size = -(-max(128, lanes) // 128) * 128  # round to workgroups
    geom = NDRange(global_size, 128).resolve(256, 32)
    wl = KernelWorkload(
        name, geom, active_lanes=lanes, atomics=atomics, atomic_targets=targets, serial_ops=serial
    )
    if n_addrs:
        wl.add_stream(np.arange(n_addrs), 4, region=1)
    return wl


@pytest.fixture
def model():
    return CostModel(nvidia_v100s())


class TestCharge:
    def test_time_includes_launch_overhead(self, model):
        cost = model.charge(_wl(n_addrs=0))
        assert cost.time_ns >= cost.launch_ns > 0

    def test_time_is_max_of_compute_and_memory(self, model):
        cost = model.charge(_wl())
        assert cost.time_ns >= cost.launch_ns + max(cost.compute_ns, cost.memory_ns)

    def test_more_work_costs_more(self, model):
        small = model.charge(_wl(serial=1_000))
        big = model.charge(_wl(serial=10_000_000))
        assert big.time_ns > small.time_ns

    def test_more_traffic_costs_more(self, model):
        rng = np.random.default_rng(1)
        small = _wl(n_addrs=0)
        small.add_stream(rng.integers(0, 1 << 22, 1_000), 4, region=1)
        big = _wl(n_addrs=0)
        big.add_stream(rng.integers(0, 1 << 22, 500_000), 4, region=1)
        assert model.charge(big).memory_ns > model.charge(small).memory_ns

    def test_contended_atomics_cost_more(self, model):
        free = model.charge(_wl(atomics=100_000, targets=100_000))
        hot = model.charge(_wl(atomics=100_000, targets=1))
        assert hot.compute_ns > free.compute_ns

    def test_metrics_in_range(self, model):
        cost = model.charge(_wl())
        assert 0.0 <= cost.occupancy <= 1.0
        assert 0.0 <= cost.l1_hit_rate <= 1.0
        assert 0.0 <= cost.active_lane_fraction <= 1.0
        assert cost.dram_bytes >= 0

    def test_empty_kernel(self, model):
        geom = Range(0).resolve(256, 32)
        cost = model.charge(KernelWorkload("nop", geom, active_lanes=0))
        assert cost.occupancy == 0.0
        assert cost.dram_bytes == 0

    def test_dispatch_bound_grids(self, model):
        """A grid with a huge workgroup count is dispatch-bound (Fig 5a)."""
        geom = NDRange(100_000 * 128, 128).resolve(128, 32)
        wl = KernelWorkload("scan", geom, active_lanes=100, instructions_per_lane=1.0)
        cost = model.charge(wl)
        assert cost.time_ns >= 100_000 * model.WG_DISPATCH_NS

    def test_low_mlp_slows_memory(self, model):
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 1 << 22, 100_000)
        starved = _wl(n_addrs=0)
        starved.add_stream(addrs, 4, region=1)
        starved.engaged_subgroups = 2.0
        rich = _wl(n_addrs=0)
        rich.add_stream(addrs, 4, region=1)
        rich.engaged_subgroups = 10_000.0
        assert model.charge(starved).memory_ns > model.charge(rich).memory_ns


class TestDeviceDifferences:
    def test_usm_penalty_on_rocm(self):
        """Same DRAM bytes cost more on ROCm (Xnack USM, paper §3.3)."""
        per_byte = {}
        for dev in (amd_mi100(), nvidia_v100s()):
            # every access a new line: all of them reach DRAM on both devices
            wl = _wl(n_addrs=0)
            wl.add_stream(np.arange(20_000) * 64, 8, region=1)
            wl.engaged_subgroups = 1e9  # full bandwidth
            cost = CostModel(dev).charge(wl)
            assert cost.dram_bytes == 20_000 * dev.spec.l1_line_bytes
            # normalize by bytes and bandwidth so only the USM penalty differs
            per_byte[dev.spec.name] = cost.memory_ns * dev.spec.mem_bandwidth_gbs / cost.dram_bytes
        assert per_byte["MI100"] > per_byte["Tesla V100S"]

    def test_large_l2_absorbs_more(self):
        """MAX1100's 108MB L2 leaves fewer DRAM bytes than V100S's 6MB."""
        rng = np.random.default_rng(4)
        addrs = rng.integers(0, 1 << 23, 400_000)
        out = {}
        for dev in (intel_max1100(), nvidia_v100s()):
            wl = _wl(n_addrs=0)
            wl.add_stream(addrs, 4, region=1)
            out[dev.spec.name] = CostModel(dev).charge(wl).dram_bytes
        assert out["MAX1100"] < out["Tesla V100S"]


class TestAccessStream:
    def test_regions_do_not_alias(self):
        a = AccessStream(np.array([0, 1]), 4, region=1)
        b = AccessStream(np.array([0, 1]), 4, region=2)
        assert set(a.byte_addresses()).isdisjoint(set(b.byte_addresses()))

    def test_total_bytes(self):
        s = AccessStream(np.arange(10), 8, region=0)
        assert s.total_bytes == 80
        assert s.count == 10


@settings(max_examples=25, deadline=None)
@given(
    lanes=st.integers(1, 4096),
    serial=st.integers(0, 1_000_000),
    atomics=st.integers(0, 10_000),
)
def test_cost_is_finite_and_positive(lanes, serial, atomics):
    model = CostModel(nvidia_v100s())
    wl = _wl(lanes=lanes, serial=serial, atomics=atomics, targets=max(1, atomics // 2))
    cost = model.charge(wl)
    assert np.isfinite(cost.time_ns)
    assert cost.time_ns > 0
