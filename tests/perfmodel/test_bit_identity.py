"""The cost model is bit-identical to its first, per-kernel formulation.

``reference_memory_hierarchy`` below is a frozen copy of the original
per-stream pricing: ``np.unique`` for distinct lines, ``np.linspace`` to
thin each stream's L1 misses, one :func:`estimate_cache_hits`-style pass
per stream and one over the concatenated L2 stream.
``reference_kernel_cost`` is a frozen copy of the original per-kernel
launch pricing: compute, memory and dispatch time, DRAM bytes, achieved
occupancy and lane fraction, with its constants.  Every modeled number
(kernel time, L1 hit rate, DRAM bytes, Table 5) derives from them, so
:meth:`CostModel.charge_many` must reproduce every :class:`KernelCost`
field exactly, with Python types, on every device, with and without USM,
whether it prices a kernel alone or in a batch, for every stream whose
byte offsets lie inside its region (``[0, 2**40)``, the premise of
:class:`AccessStream`'s non-aliasing regions).
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
    count_distinct_segments,
)
from repro.perfmodel.cost import (
    LARGE_STREAM,
    SHORT_STREAM,
    SMALL_BATCH,
    CostModel,
    KernelCost,
    KernelWorkload,
    null_workload,
)
from repro.perfmodel.scaling import CACHE_SCALE
from repro.sycl.backend import backend_traits
from repro.sycl.device import amd_mi100, nvidia_v100s
from repro.sycl.ndrange import NDRange, WorkgroupGeometry

#: the cutoff below which the previous model priced streams in Python
SHORT = 48
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


# the launch constants of the reference
LANES_PER_CU_PER_CYCLE = 32
ATOMIC_CYCLES = 8
MIN_MEM_EFFICIENCY = 0.05
WG_DISPATCH_NS = 1.0
SUBGROUPS_FOR_PEAK_BW_PER_CU = 16.0
RESOURCE_CEILING = 0.93


def _reference_workgroups(geom):
    return -(-geom.global_size // geom.workgroup_size) if geom.global_size else 0


def reference_occupancy(geom, spec):
    """``achieved_occupancy`` as the per-kernel model computed it."""
    workgroups = _reference_workgroups(geom)
    if workgroups == 0:
        return 0.0
    per_cu_workgroups = min(spec.max_workgroups_per_cu, workgroups / spec.compute_units)
    resident_threads = min(spec.max_threads_per_cu, per_cu_workgroups * geom.workgroup_size)
    occ = resident_threads / spec.max_threads_per_cu
    return float(min(RESOURCE_CEILING, occ))


def reference_compute_time_ns(spec, wl, total_lanes):
    throughput = max(1, spec.compute_units * LANES_PER_CU_PER_CYCLE)
    lane_ops = total_lanes * wl.instructions_per_lane + wl.serial_ops
    cycles = lane_ops / throughput
    if wl.atomics:
        aggregate = wl.atomics * ATOMIC_CYCLES / throughput
        chain = (wl.atomics / max(1, wl.atomic_targets or wl.atomics)) * ATOMIC_CYCLES
        cycles += max(aggregate, chain)
    return cycles / spec.clock_ghz


def reference_memory_time_ns(model, dram_bytes, engaged_subgroups):
    if dram_bytes == 0:
        return 0.0
    spec = model.spec
    width_factor = spec.preferred_subgroup_size / 32.0
    peak_subgroups = spec.compute_units * SUBGROUPS_FOR_PEAK_BW_PER_CU / width_factor
    efficiency = max(MIN_MEM_EFFICIENCY, min(1.0, engaged_subgroups / peak_subgroups))
    bw_bytes_per_ns = spec.mem_bandwidth_gbs * efficiency
    penalty = backend_traits(model.device.backend).usm_penalty if model.usm else 1.0
    return dram_bytes * penalty / bw_bytes_per_ns


def reference_kernel_cost(model, wl, l1, l2):
    """The :class:`KernelCost` the per-kernel model built from ``wl``'s
    launch fields and its memory counts."""
    spec = model.spec
    geom = wl.geometry
    workgroups = _reference_workgroups(geom)
    total_lanes = workgroups * geom.workgroup_size
    dram_bytes = (l2.accesses - l2.hits) * spec.l1_line_bytes
    engaged = wl.engaged_subgroups
    if engaged is None:
        engaged = wl.active_lanes / max(1, geom.subgroup_size)
    compute_ns = reference_compute_time_ns(spec, wl, total_lanes)
    memory_ns = reference_memory_time_ns(model, dram_bytes, engaged)
    dispatch_ns = workgroups * WG_DISPATCH_NS
    launch_ns = backend_traits(model.device.backend).launch_overhead_us * 1_000.0
    return KernelCost(
        name=wl.name,
        time_ns=launch_ns + max(compute_ns, memory_ns, dispatch_ns),
        compute_ns=compute_ns,
        memory_ns=memory_ns,
        launch_ns=launch_ns,
        l1=CacheStats(l1.accesses, l1.hits),
        l2=CacheStats(l2.accesses, l2.hits),
        dram_bytes=dram_bytes,
        occupancy=reference_occupancy(geom, spec),
        active_lane_fraction=wl.active_lanes / total_lanes if total_lanes else 0.0,
    )


def reference_charge(model, wl):
    """The :class:`KernelCost` of ``wl`` with the reference memory
    hierarchy and launch pricing, read straight from the workload."""
    l1, l2, _ = reference_memory_hierarchy(model, wl)
    return reference_kernel_cost(model, wl, l1, l2)


DEVICES = {"v100s": nvidia_v100s, "mi100": amd_mi100}
FLOAT_FIELDS = ("time_ns", "compute_ns", "memory_ns", "launch_ns", "occupancy", "active_lane_fraction")


@pytest.fixture(scope="module", params=sorted(DEVICES))
def model(request):
    return CostModel(DEVICES[request.param]())


@pytest.fixture(scope="module", params=sorted(DEVICES))
def device_memory_model(request):
    """Explicit device allocations: no USM penalty (paper §3.3)."""
    return CostModel(DEVICES[request.param](), usm=False)


def _workload(streams, lanes=256, geometry=None, **fields):
    geom = geometry or NDRange(max(128, -(-lanes // 128) * 128), 128).resolve(256, 32)
    wl = KernelWorkload("k", geom, active_lanes=lanes, **fields)
    for addresses, item_bytes, region in streams:
        wl.add_stream(addresses, item_bytes, region)
    return wl


def assert_same_cost(new, ref):
    assert new.name == ref.name
    for field in FLOAT_FIELDS:
        value = getattr(new, field)
        assert value == getattr(ref, field), field
        assert type(value) is float, (field, type(value))
    assert new.dram_bytes == ref.dram_bytes and type(new.dram_bytes) is int
    for level in ("l1", "l2"):
        a, b = getattr(new, level), getattr(ref, level)
        assert (a.accesses, a.hits) == (b.accesses, b.hits), level
        assert type(a.accesses) is int and type(a.hits) is int, level


def assert_identical(model, wl):
    """``wl`` priced alone and in a batch big enough for the vectorized
    pass both equal the reference."""
    ref = reference_charge(model, wl)
    assert_same_cost(model.charge(wl), ref)
    padding = [null_workload("pad")] * (SMALL_BATCH - 1)
    assert_same_cost(model.charge_many(padding + [wl])[-1], ref)
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
LARGE_LENGTHS = st.sampled_from([LARGE_STREAM, LARGE_STREAM + 1, LARGE_STREAM + 700])
KINDS = ("random", "runs", "arange", "sparse", "same")
#: item sizes that divide every device's cache line, one that divides
#: none (12) and one wider than any line (256)
ITEM_BYTES = [1, 4, 8, 12, 256]


@st.composite
def streams(draw, lengths=LENGTHS, regions=st.integers(0, 2)):
    kind = draw(st.sampled_from(KINDS))
    n = draw(lengths)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    item_bytes = draw(st.sampled_from(ITEM_BYTES))
    region = draw(regions)
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


@st.composite
def geometries(draw):
    """Launch shapes: an empty grid, partial last workgroups, and 32- and
    64-lane subgroups."""
    subgroup = draw(st.sampled_from([32, 64]))
    workgroup = subgroup * draw(st.sampled_from([1, 2, 4, 8]))
    global_size = draw(st.one_of(st.just(0), st.integers(1, 1 << 17)))
    return WorkgroupGeometry(global_size, workgroup, subgroup)


@st.composite
def workloads(draw):
    """A kernel whose streams are mostly short, sometimes past
    ``LARGE_STREAM``, on a few regions (so shared within the kernel), with
    the launch fields every formula reads.  Some streams read an earlier
    stream's array object again, on another region, at the same or
    another item size, as an advance reads ``col_idx`` and ``weights`` at
    the same edge ids."""
    lengths = st.one_of(LENGTHS, LARGE_LENGTHS) if draw(st.integers(0, 7)) == 0 else LENGTHS
    stream_list = draw(st.lists(streams(lengths, st.integers(0, 3)), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if stream_list else 0):
        addresses, item_bytes, region = draw(st.sampled_from(stream_list))
        other = draw(st.sampled_from(ITEM_BYTES))
        if addresses.size == 0 or int(addresses.max()) < _region_end(np.int64, other):
            item_bytes = other
        again = (addresses, item_bytes, draw(st.integers(0, 3).filter(lambda r: r != region)))
        stream_list.insert(draw(st.integers(0, len(stream_list))), again)
    lanes = draw(st.integers(0, 1 << 14))
    atomics = draw(st.sampled_from([0, 0, 1, 37, 5000]))
    return _workload(
        stream_list,
        lanes,
        geometry=draw(st.one_of(st.none(), geometries())),
        instructions_per_lane=draw(st.sampled_from([1.0, 6.0, 8.0, 2.5, 3])),
        serial_ops=draw(st.sampled_from([0, 17, 3.5, 40000])),
        atomics=atomics,
        atomic_targets=draw(st.one_of(st.just(0), st.integers(0, atomics))),
        engaged_subgroups=draw(st.sampled_from([None, None, 0.5, 3.0, 900.0])),
    )


@settings(max_examples=250, deadline=None)
@given(st.lists(streams(), min_size=0, max_size=6), st.integers(1, 1 << 14))
def test_charge_matches_reference(model, stream_list, lanes):
    assert_identical(model, _workload(stream_list, lanes))


@settings(max_examples=60, deadline=None)
@given(st.lists(workloads(), min_size=1, max_size=40))
def test_charge_many_matches_reference_kernel_by_kernel(model, wls):
    """One batch prices every kernel exactly as pricing it alone did:
    regions are shared within a kernel and across kernels, and no repeat
    or distinct line is counted across a kernel boundary."""
    costs = model.charge_many(wls)
    assert len(costs) == len(wls)
    for wl, cost in zip(wls, costs):
        assert_same_cost(cost, reference_charge(model, wl))


@settings(max_examples=40, deadline=None)
@given(st.lists(workloads(), min_size=1, max_size=20))
def test_charge_many_matches_reference_with_device_memory(device_memory_model, wls):
    """Explicit device allocations price DRAM traffic without the
    backend's USM penalty, by the same formulas."""
    model = device_memory_model
    for wl, cost in zip(wls, model.charge_many(wls)):
        assert_same_cost(cost, reference_charge(model, wl))
    assert_same_cost(model.charge(wls[-1]), reference_charge(model, wls[-1]))


@pytest.mark.parametrize("subgroup", [32, 64])
def test_engaged_subgroups_default_to_active_lanes(model, subgroup):
    """Without ``engaged_subgroups``, memory-level parallelism is the
    active lanes over the subgroup width; an empty grid, partial
    workgroups and contended atomics on no target price as before."""
    rng = np.random.default_rng(subgroup)
    stream = (rng.integers(0, 1 << 22, 3000), 4, 1)
    wls = [
        _workload([stream], lanes, geometry=WorkgroupGeometry(size, 2 * subgroup, subgroup), atomics=atomics)
        for lanes, size, atomics in [(0, 0, 0), (77, 77, 5), (1000, 4096, 37), (3, 1 << 16, 1)]
    ]
    for wl in wls:
        assert_identical(model, wl)
    for wl, cost in zip(wls, model.charge_many(wls)):
        assert_same_cost(cost, reference_charge(model, wl))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2 * SHORT), min_size=2, max_size=6),
    st.sampled_from(ITEM_BYTES),
    st.integers(0, 2**32 - 1),
)
def test_streams_sharing_one_region(model, lengths, item_bytes, seed):
    """Misses of several streams on one buffer overlap in L2: distinct
    lines and repeats are counted across stream boundaries."""
    rng = np.random.default_rng(seed)
    wl = _workload([(rng.integers(0, 2048, n), item_bytes, 1) for n in lengths])
    assert_identical(model, wl)


# --------------------------------------------------------------------- #
# the edges, pinned                                                     #
# --------------------------------------------------------------------- #
#: ``(n, between)``: two ``n``-access streams, with or without a stream of
#: another buffer between them
BOUNDARY_CASES = [(n, between) for between in (False, True) for n in (8, 3000, LARGE_STREAM + 1)]


@pytest.mark.parametrize(
    "n, between", BOUNDARY_CASES, ids=[f"{n}-between" if between else f"{n}" for n, between in BOUNDARY_CASES]
)
def test_l2_repeat_across_a_stream_boundary(model, n, between):
    """Two streams on one buffer, every access a new line: the second
    starts on the line where the first ended, so the L2 stream repeats a
    line across the boundary.  At 3000 lines the working set overflows L2
    and that one repeat changes the hit count.  A stream on another buffer
    between them reads, at that buffer's own offset, the line where the
    first ends and the second starts: no repeat counts across either of
    its boundaries."""
    forward = np.arange(n) * 64
    middle = [(np.full(n, forward[-1]), 8, 2)] if between else []
    assert_identical(model, _workload([(forward, 8, 1)] + middle + [(forward[::-1].copy(), 8, 1)]))


def test_no_repeat_across_a_kernel_boundary(model):
    """Two kernels that each read one buffer forward, then backward: each
    kernel's L2 stream repeats a line at its stream boundary, and the
    second kernel starts on the line where the first ended, which is no
    repeat at all."""
    forward = np.arange(3000) * 64
    kernel = [(forward, 8, 1), (forward[::-1].copy(), 8, 1)]
    wls = [null_workload("pad")] * SMALL_BATCH + [_workload(kernel), _workload(kernel)]
    for wl, cost in zip(wls, model.charge_many(wls)):
        assert_same_cost(cost, reference_charge(model, wl))


def test_no_repeat_across_a_region_change(model):
    """A stream on another buffer ends on the line offset where the next
    stream starts: different regions, so no repeat."""
    forward = np.arange(3000) * 64
    assert_identical(
        model, _workload([(forward, 8, 1), (forward[::-1].copy(), 8, 2), (forward, 8, 1)])
    )


def test_no_streams(model):
    ref = assert_identical(model, _workload([]))
    assert ref.l1.accesses == 0 and ref.dram_bytes == 0


def test_empty_streams(model):
    empty = np.empty(0, np.int64)
    ref = assert_identical(model, _workload([(empty, 4, 0), (empty, 8, 1)]))
    assert ref.l1.accesses == 0 and ref.l2.accesses == 0


def test_empty_batch(model):
    assert model.charge_many([]) == []


@pytest.mark.parametrize("n", [SHORT - 1, SHORT, SHORT + 1])
@pytest.mark.parametrize("item_bytes", [1, 4, 8])
def test_both_sides_of_the_short_stream_cutoff(model, n, item_bytes):
    rng = np.random.default_rng(n)
    wl = _workload([(rng.integers(0, 4096, n), item_bytes, 0), (np.arange(n), item_bytes, 1)])
    assert_identical(model, wl)


@pytest.mark.parametrize("n", [LARGE_STREAM - 1, LARGE_STREAM, LARGE_STREAM + 1])
@pytest.mark.parametrize("item_bytes", [1, 4, 8])
def test_both_sides_of_the_large_stream_cutoff(model, n, item_bytes):
    rng = np.random.default_rng(n)
    wl = _workload([(rng.integers(0, 4096, n), item_bytes, 0), (np.arange(n), item_bytes, 1)])
    assert_identical(model, wl)


@pytest.mark.parametrize("n", [1, 2, SHORT, 5 * SHORT, LARGE_STREAM + 1])
def test_one_miss_thins_to_the_first_access(model, n):
    """All accesses on one line: a single L1 miss (m == 1)."""
    ref = assert_identical(model, _workload([(np.full(n, 7), 4, 0)]))
    assert ref.l1.misses == 1


@pytest.mark.parametrize("n", [2, SHORT, 5 * SHORT, LARGE_STREAM + 1])
def test_all_misses_keep_the_whole_stream(model, n):
    """Every access on a new line: nothing hits (m == n)."""
    ref = assert_identical(model, _workload([(np.arange(n) * 64, 8, 0)]))
    assert ref.l1.misses == n


@pytest.mark.parametrize("n", [3000, LARGE_STREAM + 1])
@pytest.mark.parametrize("descent", [SHORT_STREAM, SHORT_STREAM + 1, 1000, None])
def test_sorted_prefix_then_one_descent(model, n, descent):
    """A long stream whose lines rise through at least its first
    ``SHORT_STREAM`` accesses, then fall back once to lines it already
    read: the prefix looks sorted, so only the whole-stream test keeps its
    distinct lines from being counted as accesses minus repeats, in L1 and
    in its region of L2.  Without the descent (None) the stream is sorted,
    and so are its thinned misses: each region counts its distinct lines
    from their repeats."""
    descent = n if descent is None else descent
    addresses = np.concatenate([np.arange(descent), np.arange(n - descent)]) * 16
    assert_identical(model, _workload([(addresses, 8, 2), (addresses, 4, 3)]))


@pytest.mark.parametrize("n", [3000, LARGE_STREAM + 1])
@pytest.mark.parametrize("seen_by", ["whole stream", "sample"])
def test_one_descent_after_the_head(model, n, seen_by):
    """A long stream with one new line per access that rises through its
    first ``SHORT_STREAM`` lines and falls once later, to a line it
    already read.  Between two sampled accesses (every
    ``SHORT_STREAM``-th) the samples rise too, and only the whole-stream
    test sees the descent; on a sampled access, the sample sees it.
    Either way the stream is unsorted and counts its distinct lines."""
    lines = np.arange(n)
    if seen_by == "sample":
        at = 10 * SHORT_STREAM
        lines[at] = lines[at - SHORT_STREAM] - 1
    else:
        at = 10 * SHORT_STREAM + SHORT_STREAM // 2
        lines[at] -= 5
    sample = lines[::SHORT_STREAM]
    assert bool((sample[1:] >= sample[:-1]).all()) == (seen_by != "sample")
    addresses = lines * (model.spec.l1_line_bytes // 8)
    assert_identical(model, _workload([(addresses, 8, 2), (addresses, 4, 3)]))


#: ``(n, start, top)``: an ``n``-access stream from address ``start``;
#: ``top``, if not None, puts its last line but one ``top`` lines above
#: the largest line an unsorted stream of ``n`` accesses marks from line 0
LAST_ACCESS_CASES = [(n, 0, None) for n in (SHORT_STREAM + 1, 3000, LARGE_STREAM + 1)] + [
    (n, start, top)
    for n in (SHORT_STREAM + 1, 3000, LARGE_STREAM + 1)
    for start, top in ((0, -1), (0, 0), (0, 1), (1 << 30, None))
]


@pytest.mark.parametrize(
    "n, start, top",
    LAST_ACCESS_CASES,
    ids=[
        f"{n}" + (f"-bound{top:+d}" if top else "-bound" if top == 0 else "-far" if start else "")
        for n, start, top in LAST_ACCESS_CASES
    ],
)
def test_sorted_but_the_last_access(model, n, start, top):
    """A long stream that reads a new line at every access until its last,
    which returns to its first line.  Unsorted, it marks its lines from
    line 0 while its largest line keeps the span from line 0 within
    ``MARK_SPAN_PER_ACCESS`` lines per access plus ``MARK_SPAN_BASE``:
    ``top`` puts that line one below, at and one above the largest that
    does.  Started far above line 0, it spans few lines and marks them
    from its smallest."""
    addresses = start + np.arange(n) * 16
    addresses[-1] = start
    if top is not None:
        largest_marked = MARK_SPAN_PER_ACCESS * n + MARK_SPAN_BASE - 1
        addresses[-2] = (largest_marked + top) * (model.spec.l1_line_bytes // 8)
    assert_identical(model, _workload([(addresses, 8, 2)]))


def _edge_ids(n, seed):
    """An advance's edge ids: the sorted edge range of each of a few
    hundred random rows, in frontier order, ``n`` in all."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 1 << 20, 400)
    return np.concatenate([np.arange(s, s + rng.integers(1, 40)) for s in starts])[:n]


#: ``(n, item_bytes, edges, after)``: ``n`` edge ids, as runs of random
#: rows or as the all-vertex sweep's ``arange``, read by ``col_idx`` at 4
#: bytes and by ``weights`` at ``item_bytes``; then nothing, or a read of
#: the ``col_idx`` region (2) or of the ``weights`` region (3)
SHARED_CASES = [
    (n, item_bytes, edges, after)
    for edges, after in [("rows", None), ("sweep", None), ("rows", 2), ("rows", 3), ("sweep", 2), ("sweep", 3)]
    for n in (3000, LARGE_STREAM + 1)
    for item_bytes in (4, 8, 12)
]


@pytest.mark.parametrize(
    "n, item_bytes, edges, after",
    SHARED_CASES,
    ids=[
        "-".join(([] if edges == "rows" else [edges]) + ([f"then{after}"] if after else []) + [str(n), str(item)])
        for n, item, edges, after in SHARED_CASES
    ],
)
def test_shared_array_prices_as_its_copy(model, n, item_bytes, edges, after):
    """A kernel that reads ``col_idx`` and ``weights`` at one ``eid``
    array costs what it costs with an equal copy of the array in the
    second stream, at the second stream's own item size.  Its stream past
    ``LARGE_STREAM`` has it priced on adding, from the caller's arrays.
    At one item size both regions hold the same thinned lines, so the
    second takes the first's distinct count unless a later stream joins
    either region."""
    eid = _edge_ids(n, n) if edges == "rows" else np.arange(n)
    assert eid.size == n
    extra = (np.arange(LARGE_STREAM + 1), 4, 1)
    tail = [(_edge_ids(700, 7), 4, after)] if after else []
    shared = _workload([extra, (eid, 4, 2), (eid, item_bytes, 3)] + tail)
    copied = _workload([extra, (eid, 4, 2), (eid.copy(), item_bytes, 3)] + tail)
    assert_same_cost(model.charge(shared), model.charge(copied))
    assert_identical(model, shared)


def _sparse_workload(model, dtype, n):
    rng = np.random.default_rng(3)
    addresses = rng.integers(0, _region_end(dtype, 8), n).astype(dtype)
    lines = addresses.astype(np.int64) * 8 // model.spec.l1_line_bytes
    assert np.ptp(lines) + 1 > MARK_SPAN_PER_ACCESS * n + MARK_SPAN_BASE
    return _workload([(addresses, 8, 2), (addresses[::-1], 8, 2)])


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sparse_streams_use_the_sort_fallback(model, dtype):
    assert_identical(model, _sparse_workload(model, dtype, 5 * SHORT))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_large_sparse_streams_use_the_sort_fallback(model, dtype):
    assert_identical(model, _sparse_workload(model, dtype, LARGE_STREAM + 1))


def test_count_distinct_both_ways():
    """Marked and sorted, and without bounds at most SHORT_STREAM values
    counted as a set, on both sides of that cutoff: repeats count once,
    and the count is an int."""
    rng = np.random.default_rng(5)
    dense = rng.integers(100, 400, 1000)
    sparse = rng.integers(0, 1 << 50, 1000)
    for lines in (dense, sparse):
        assert count_distinct(lines, int(lines.min()), int(lines.max())) == np.unique(lines).size
        assert count_distinct(lines) == np.unique(lines).size
    for size in (1, SHORT_STREAM, SHORT_STREAM + 1):
        for dtype in (np.int32, np.int64):
            dense = rng.integers(100, 100 + max(1, size // 3), size).astype(dtype)
            sparse = rng.integers(0, 1 << (50 if dtype is np.int64 else 30), size).astype(dtype)
            sparse[size // 2 :] = sparse[: size - size // 2]  # repeats
            for lines in (dense, sparse):
                bounded = count_distinct(lines, int(lines.min()), int(lines.max()))
                unbounded = count_distinct(lines)
                assert bounded == unbounded == np.unique(lines).size, (size, dtype)
                assert type(bounded) is type(unbounded) is int


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), st.sampled_from([4, 64, 1 << 12, 1 << 40])), min_size=1, max_size=12))
def test_count_distinct_segments_matches_unique(segments):
    """Dense segments (marked) and sparse ones (sorted) in one call, with
    the values of different segments interleaved."""
    rng = np.random.default_rng(len(segments))
    parts = [rng.integers(0, span, n) for n, span in segments]
    segment = np.concatenate([np.full(n, g) for g, (n, _) in enumerate(segments)])
    order = rng.permutation(segment.size)
    values = np.concatenate(parts)[order]
    counts = count_distinct_segments(
        values,
        segment[order],
        np.array([p.min() for p in parts]),
        np.array([p.max() for p in parts]),
        np.array([n for n, _ in segments]),
    )
    assert counts.tolist() == [np.unique(p).size for p in parts]
