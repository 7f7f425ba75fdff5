"""The cost model's memory hierarchy is bit-identical to its first,
sort-based formulation.

``reference_memory_hierarchy`` below is a frozen copy of the original
per-stream pricing: ``np.unique`` for distinct lines, ``np.linspace`` to
thin each stream's L1 misses, one :func:`estimate_cache_hits`-style pass
per stream and one over the concatenated L2 stream.  Every modeled number
(kernel time, L1 hit rate, DRAM bytes, Table 5) derives from it, so the
linear-time implementation in :meth:`CostModel._memory_hierarchy` must
reproduce every :class:`KernelCost` field exactly, on every device, for
every stream whose byte offsets lie inside its region (``[0, 2**40)``,
the premise of :class:`AccessStream`'s non-aliasing regions).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.cache import (
    MARK_SPAN_BASE,
    MARK_SPAN_PER_ACCESS,
    CacheStats,
    count_distinct,
)
from repro.perfmodel.cost import CostModel, KernelWorkload
from repro.perfmodel.scaling import CACHE_SCALE
from repro.sycl.device import amd_mi100, nvidia_v100s
from repro.sycl.ndrange import NDRange

SHORT = CostModel.SHORT_STREAM
REGION_STRIDE = 1 << 40


def _reference_estimate(lines, capacity_bytes, line_bytes):
    lines = np.asarray(lines)
    accesses = int(lines.size)
    if accesses == 0:
        return CacheStats(0, 0)
    unique = int(np.unique(lines).size)
    adjacent = int(np.count_nonzero(lines[1:] == lines[:-1]))
    capacity_lines = max(1, capacity_bytes // line_bytes)
    potential = accesses - unique - adjacent
    fit = min(1.0, capacity_lines / unique)
    hits = adjacent + int(round(max(0, potential) * fit))
    return CacheStats(accesses, min(hits, accesses - unique))


def _reference_resample(lines, n):
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    if n >= lines.size:
        return lines
    idx = np.linspace(0, lines.size - 1, n).astype(np.int64)
    return lines[idx]


def reference_memory_hierarchy(model, wl):
    """``(l1, l2, dram_bytes)`` as the sort-based model computed them."""
    spec = model.spec
    if not wl.streams:
        return CacheStats(0, 0), CacheStats(0, 0), 0
    l1_capacity = max(
        spec.l1_line_bytes * 4, int(spec.l1_bytes_per_cu * CACHE_SCALE) * spec.compute_units
    )
    l1_acc = l1_hits = 0
    miss_lines = []
    for s in wl.streams:
        byte_addresses = (
            np.asarray(s.addresses, dtype=np.int64) * s.item_bytes
            + np.int64(s.region) * REGION_STRIDE
        )
        lines = (byte_addresses // spec.l1_line_bytes).astype(np.int64)
        stats = _reference_estimate(lines, l1_capacity, spec.l1_line_bytes)
        l1_acc += stats.accesses
        l1_hits += stats.hits
        if stats.misses:
            miss_lines.append(_reference_resample(lines, stats.misses))
    l2_capacity = max(spec.l1_line_bytes * 16, int(spec.l2_bytes * CACHE_SCALE))
    l2_stream = np.concatenate(miss_lines) if miss_lines else np.empty(0, np.int64)
    l2 = _reference_estimate(l2_stream, l2_capacity, spec.l1_line_bytes)
    return CacheStats(l1_acc, l1_hits), l2, int(l2.misses * spec.l1_line_bytes)


class ReferenceModel(CostModel):
    """The cost model with the sort-based memory hierarchy."""

    def _memory_hierarchy(self, wl):
        return reference_memory_hierarchy(self, wl)


DEVICES = {"v100s": nvidia_v100s, "mi100": amd_mi100}


@pytest.fixture(scope="module", params=sorted(DEVICES))
def models(request):
    device = DEVICES[request.param]()
    return CostModel(device), ReferenceModel(device)


def _workload(streams, lanes=256):
    geom = NDRange(max(128, -(-lanes // 128) * 128), 128).resolve(256, 32)
    wl = KernelWorkload("k", geom, active_lanes=lanes)
    for addresses, item_bytes, region in streams:
        wl.add_stream(addresses, item_bytes, region)
    return wl


def assert_identical(models, wl):
    new, ref = (m.charge(wl) for m in models)
    for field in (
        "name", "time_ns", "compute_ns", "memory_ns", "launch_ns",
        "dram_bytes", "occupancy", "active_lane_fraction",
    ):
        assert getattr(new, field) == getattr(ref, field), field
    assert (new.l1.accesses, new.l1.hits) == (ref.l1.accesses, ref.l1.hits)
    assert (new.l2.accesses, new.l2.hits) == (ref.l2.accesses, ref.l2.hits)
    assert type(new.dram_bytes) is int
    return ref


# --------------------------------------------------------------------- #
# hypothesis-generated workloads                                        #
# --------------------------------------------------------------------- #
def _region_end(dtype, item_bytes):
    """One past the last address of ``dtype`` inside a region."""
    return min(int(np.iinfo(dtype).max) + 1, REGION_STRIDE // item_bytes)


LENGTHS = st.one_of(
    st.integers(0, 8),
    st.sampled_from([SHORT - 1, SHORT, SHORT + 1, 2 * SHORT, 2 * SHORT + 1]),
    st.integers(0, 400),
)
KINDS = ("random", "runs", "arange", "sparse", "same")


@st.composite
def streams(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(LENGTHS)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    item_bytes = draw(st.sampled_from([1, 4, 8]))
    region = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        addresses = rng.integers(0, draw(st.sampled_from([4, 64, 4096, 1 << 20])), n)
    elif kind == "runs":
        values = rng.integers(0, draw(st.sampled_from([8, 512, 1 << 16])), n)
        addresses = np.repeat(values, rng.integers(1, 6, n))[:n]
    elif kind == "arange":
        start = draw(st.integers(0, 1 << 20))
        stride = draw(st.sampled_from([1, 2, 16, 64]))
        addresses = np.arange(start, start + n * stride, stride)
    elif kind == "sparse":
        # spans far wider than the stream: distinct lines counted by sorting
        addresses = rng.integers(0, _region_end(dtype, item_bytes), n)
    else:
        addresses = np.full(n, draw(st.integers(0, 1 << 20)))
    return addresses.astype(dtype), item_bytes, region


@settings(max_examples=250, deadline=None)
@given(st.lists(streams(), min_size=0, max_size=6), st.integers(1, 1 << 14))
def test_charge_matches_reference(models, stream_list, lanes):
    assert_identical(models, _workload(stream_list, lanes))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2 * SHORT), min_size=2, max_size=6),
    st.sampled_from([1, 4, 8]),
    st.integers(0, 2**32 - 1),
)
def test_streams_sharing_one_region(models, lengths, item_bytes, seed):
    """Misses of several streams on one buffer overlap in L2: distinct
    lines and repeats are counted across stream boundaries."""
    rng = np.random.default_rng(seed)
    wl = _workload([(rng.integers(0, 2048, n), item_bytes, 1) for n in lengths])
    assert_identical(models, wl)


# --------------------------------------------------------------------- #
# the edges, pinned                                                     #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [8, 3000])
def test_l2_repeat_across_a_stream_boundary(models, n):
    """Two streams on one buffer, every access a new line: the second
    starts on the line where the first ended, so the L2 stream repeats a
    line across the boundary.  At 3000 lines the working set overflows L2
    and that one repeat changes the hit count."""
    forward = np.arange(n) * 64
    assert_identical(models, _workload([(forward, 8, 1), (forward[::-1].copy(), 8, 1)]))


def test_no_streams(models):
    ref = assert_identical(models, _workload([]))
    assert ref.l1.accesses == 0 and ref.dram_bytes == 0


def test_empty_streams(models):
    empty = np.empty(0, np.int64)
    ref = assert_identical(models, _workload([(empty, 4, 0), (empty, 8, 1)]))
    assert ref.l1.accesses == 0 and ref.l2.accesses == 0


@pytest.mark.parametrize("n", [SHORT - 1, SHORT, SHORT + 1])
@pytest.mark.parametrize("item_bytes", [1, 4, 8])
def test_both_sides_of_the_short_stream_cutoff(models, n, item_bytes):
    rng = np.random.default_rng(n)
    wl = _workload([(rng.integers(0, 4096, n), item_bytes, 0), (np.arange(n), item_bytes, 1)])
    assert_identical(models, wl)


@pytest.mark.parametrize("n", [1, 2, SHORT, 5 * SHORT])
def test_one_miss_thins_to_the_first_access(models, n):
    """All accesses on one line: a single L1 miss (m == 1)."""
    ref = assert_identical(models, _workload([(np.full(n, 7), 4, 0)]))
    assert ref.l1.misses == 1


@pytest.mark.parametrize("n", [2, SHORT, 5 * SHORT])
def test_all_misses_keep_the_whole_stream(models, n):
    """Every access on a new line: nothing hits (m == n)."""
    ref = assert_identical(models, _workload([(np.arange(n) * 64, 8, 0)]))
    assert ref.l1.misses == n


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sparse_streams_use_the_sort_fallback(models, dtype):
    rng = np.random.default_rng(3)
    n = 5 * SHORT
    addresses = rng.integers(0, _region_end(dtype, 8), n).astype(dtype)
    lines = addresses.astype(np.int64) * 8 // models[0].spec.l1_line_bytes
    assert np.ptp(lines) + 1 > MARK_SPAN_PER_ACCESS * n + MARK_SPAN_BASE
    assert_identical(models, _workload([(addresses, 8, 2), (addresses[::-1], 8, 2)]))


def test_count_distinct_both_ways():
    rng = np.random.default_rng(5)
    dense = rng.integers(100, 400, 1000)
    sparse = rng.integers(0, 1 << 50, 1000)
    for lines in (dense, sparse):
        assert count_distinct(lines, int(lines.min()), int(lines.max())) == np.unique(lines).size
