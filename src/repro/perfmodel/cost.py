"""Kernel workload characterization and the roofline cost model.

A simulated kernel (operator implementation, baseline framework kernel,
frontier kernel) fills in a :class:`KernelWorkload` describing what it did.
:class:`CostModel.charge` converts that to a :class:`KernelCost`:

``time = launch_overhead + max(compute_time, memory_time)``

* **compute_time** — every *scheduled* lane burns issue slots, whether or
  not it does useful work.  This is what makes a flat bitmap scan slow
  (Figure 5a: workgroups assigned to all-zero words) and what the 2LB
  layout eliminates.
* **memory_time** — address streams are pushed through the stack-distance
  L1 model (per-CU capacity) then an L2 filter (device capacity); the DRAM
  residue is divided by bandwidth, derated at low occupancy (little
  latency hiding) and inflated by the backend's USM penalty.  Pricing a
  kernel's streams takes time linear in its accesses (see
  ``docs/architecture.md``).
* **atomics** — serialized per contended location; frontiers that funnel
  many duplicate inserts into the same words (scale-free graphs) pay here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq
from typing import List, Optional

import numpy as np

from repro.perfmodel.cache import CacheStats, count_adjacent, count_distinct, line_ids, lru_hits
from repro.perfmodel.metrics import achieved_occupancy
from repro.perfmodel.scaling import CACHE_SCALE
from repro.sycl.backend import backend_traits
from repro.sycl.ndrange import WorkgroupGeometry


@dataclass
class AccessStream:
    """One batch of global-memory accesses performed by a kernel.

    ``addresses`` are element indices *within the buffer's own address
    space*; callers offset distinct buffers into disjoint regions via
    ``region`` so streams to different buffers do not alias.  A stream's
    byte offsets (``addresses * item_bytes``) lie in ``[0, 2**40)``.
    """

    addresses: np.ndarray
    item_bytes: int
    region: int = 0
    is_write: bool = False
    label: str = ""

    _REGION_STRIDE = 1 << 40  # buffers are far apart; never alias

    def byte_addresses(self) -> np.ndarray:
        base = np.asarray(self.addresses, dtype=np.int64) * self.item_bytes
        return base + np.int64(self.region) * self._REGION_STRIDE

    @property
    def count(self) -> int:
        return int(np.asarray(self.addresses).size)

    @property
    def total_bytes(self) -> int:
        return self.count * self.item_bytes


@dataclass
class KernelWorkload:
    """What one kernel launch did, as reported by the kernel itself."""

    name: str
    geometry: WorkgroupGeometry
    #: lanes doing useful work (<= geometry.total_lanes); idle lanes still
    #: consume issue slots (SIMD divergence / zero-word waste).
    active_lanes: int
    #: mean dynamic instructions per lane for the useful work.
    instructions_per_lane: float = 8.0
    streams: List[AccessStream] = field(default_factory=list)
    #: total atomic operations issued.
    atomics: int = 0
    #: atomics landing on distinct locations (contention = atomics/distinct).
    atomic_targets: int = 0
    #: extra whole-kernel serialized passes (e.g. prefix sums) in lane-ops.
    serial_ops: int = 0
    #: subgroups concurrently issuing memory requests (memory-level
    #: parallelism).  None = derive from active_lanes / subgroup width.
    #: Idle subgroups issue no loads, so a launch whose useful work is
    #: concentrated in few subgroups achieves a fraction of peak bandwidth.
    engaged_subgroups: Optional[float] = None

    def add_stream(
        self,
        addresses: np.ndarray,
        item_bytes: int,
        region: int,
        is_write: bool = False,
        label: str = "",
    ) -> None:
        self.streams.append(AccessStream(np.asarray(addresses), item_bytes, region, is_write, label))


#: shared placeholder geometry for never-costed workloads
_NULL_GEOMETRY = WorkgroupGeometry(global_size=0, workgroup_size=1, subgroup_size=1)


def null_workload(name: str) -> KernelWorkload:
    """A stream-less :class:`KernelWorkload` for non-profiling queues.

    When ``Queue.enable_profiling`` is False the cost model never runs,
    so launch geometry and address streams are dead weight — but the
    kernel must still be *submitted* (event ordering, strict-mode
    invariant sweeps, kernel counts).  Operators use this on the host's
    hot path to skip the charging work entirely; a profiling queue gets
    the fully characterized workload instead, so modeled times are
    unaffected.
    """
    return KernelWorkload(name=name, geometry=_NULL_GEOMETRY, active_lanes=0)


@dataclass
class KernelCost:
    """Model output for one kernel launch."""

    name: str
    time_ns: float
    compute_ns: float
    memory_ns: float
    launch_ns: float
    l1: CacheStats
    l2: CacheStats
    dram_bytes: int
    occupancy: float
    active_lane_fraction: float

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate


class CostModel:
    """Costs kernel workloads against one device + backend."""

    #: issue throughput: lanes retired per CU per cycle (scalar pipeline).
    LANES_PER_CU_PER_CYCLE = 32
    #: cycles one atomic takes when uncontended.
    ATOMIC_CYCLES = 8
    #: low-MLP bandwidth derating floor (latency-bound minimum).
    MIN_MEM_EFFICIENCY = 0.05
    #: hardware workgroup dispatch rate (ns per workgroup, device-wide).
    #: Grids with far more workgroups than useful work — e.g. a flat bitmap
    #: scan mapping one workgroup per (mostly zero) word, Figure 5a — are
    #: bounded by this, which is precisely what the 2LB layout eliminates.
    WG_DISPATCH_NS = 1.0

    def __init__(self, device, usm: bool = True):
        self.device = device
        self.spec = device.spec
        self.traits = backend_traits(device.backend)
        #: whether buffers live in malloc_shared USM (paper §3.3); explicit
        #: device allocations skip the backend's page-migration penalty.
        self.usm = usm
        spec = self.spec
        line = spec.l1_line_bytes
        # Effective L1 capacity: the device-wide aggregate (workgroups of a
        # launch spread over all CUs, each seeing a slice of the stream into
        # its private L1 — slices and capacities cancel at this fidelity).
        # Cache capacities are scaled with the datasets (perfmodel.scaling).
        l1_bytes = max(line * 4, int(spec.l1_bytes_per_cu * CACHE_SCALE) * spec.compute_units)
        l2_bytes = max(line * 16, int(spec.l2_bytes * CACHE_SCALE))
        self._l1_lines = max(1, l1_bytes // line)
        self._l2_lines = max(1, l2_bytes // line)

    # ------------------------------------------------------------------ #
    def charge(self, wl: KernelWorkload) -> KernelCost:
        geom = wl.geometry
        occupancy = achieved_occupancy(geom, self.spec)
        lane_fraction = (
            wl.active_lanes / geom.total_lanes if geom.total_lanes else 0.0
        )

        compute_ns = self._compute_time_ns(wl)
        l1, l2, dram_bytes = self._memory_hierarchy(wl)
        engaged = wl.engaged_subgroups
        if engaged is None:
            engaged = wl.active_lanes / max(1, geom.subgroup_size)
        memory_ns = self._memory_time_ns(dram_bytes, engaged)
        launch_ns = self.traits.launch_overhead_us * 1_000.0
        dispatch_ns = geom.num_workgroups * self.WG_DISPATCH_NS
        time_ns = launch_ns + max(compute_ns, memory_ns, dispatch_ns)
        return KernelCost(
            name=wl.name,
            time_ns=time_ns,
            compute_ns=compute_ns,
            memory_ns=memory_ns,
            launch_ns=launch_ns,
            l1=l1,
            l2=l2,
            dram_bytes=dram_bytes,
            occupancy=occupancy,
            active_lane_fraction=lane_fraction,
        )

    # ------------------------------------------------------------------ #
    def _compute_time_ns(self, wl: KernelWorkload) -> float:
        geom = wl.geometry
        # All scheduled lanes burn slots for the kernel's instruction count.
        lane_ops = geom.total_lanes * wl.instructions_per_lane + wl.serial_ops
        throughput = self.spec.compute_units * self.LANES_PER_CU_PER_CYCLE
        cycles = lane_ops / max(1, throughput)
        # Atomics: aggregate throughput cost, floored by the longest
        # serialization chain on one location (chains on distinct targets
        # proceed in parallel).
        if wl.atomics:
            aggregate = wl.atomics * self.ATOMIC_CYCLES / max(1, throughput)
            chain = (wl.atomics / max(1, wl.atomic_targets or wl.atomics)) * self.ATOMIC_CYCLES
            cycles += max(aggregate, chain)
        return cycles / self.spec.clock_ghz  # GHz -> ns per cycle

    #: streams of at most this many accesses are priced with Python ints,
    #: a set and a list: for them NumPy's per-call overhead is the whole
    #: cost (the measurement is in docs/architecture.md)
    SHORT_STREAM = 48

    def _memory_hierarchy(self, wl: KernelWorkload):
        if not wl.streams:
            return CacheStats(0, 0), CacheStats(0, 0), 0
        line = self.spec.l1_line_bytes
        l1_lines = self._l1_lines
        short = self.SHORT_STREAM
        # Each stream is modeled independently: real L1s keep concurrently
        # streamed regions in distinct sets, and the ordering information
        # (sequential vs scattered) lives within a stream.
        l1_acc = l1_hits = l2_acc = 0
        # per stream, the lines of the accesses that missed L1, and the
        # stream's line bounds (None for a short stream's Python list)
        missed = []
        for s in wl.streams:
            addresses = np.asarray(s.addresses, dtype=np.int64)
            n = addresses.size
            if n == 0:
                continue
            item, base = s.item_bytes, s.region * s._REGION_STRIDE
            if n <= short:
                lines = [(a * item + base) // line for a in addresses.tolist()]
                bounds = None
                hits = lru_hits(n, len(set(lines)), sum(map(eq, lines, lines[1:])), l1_lines)
            else:
                lines = line_ids(addresses * item + base, line)
                bounds = (int(lines.min()), int(lines.max()))
                hits = lru_hits(n, count_distinct(lines, *bounds), count_adjacent(lines), l1_lines)
            l1_acc += n
            l1_hits += hits
            m = n - hits
            if m == 0:
                continue
            # L2 sees the misses thinned deterministically, preserving
            # order and distribution: the m accesses np.linspace(0, n-1, m)
            # indexes, computed in the float64 arithmetic it performs
            if m == 1:
                lines = lines[:1]
            elif m < n:
                step = (n - 1) / (m - 1)
                if bounds is None:
                    lines = [lines[int(j * step)] for j in range(m - 1)] + lines[-1:]
                else:
                    idx = (np.arange(m) * step).astype(np.int64)
                    idx[-1] = n - 1
                    lines = lines[idx]
            missed.append((lines, bounds))
            l2_acc += m
        l1 = CacheStats(l1_acc, l1_hits)
        # Misses fall through to the device-wide L2, which sees the thinned
        # union of the per-stream miss traffic: distinct lines and
        # repeats are counted across stream boundaries.
        if l2_acc == 0:
            return l1, CacheStats(0, 0), 0
        if l2_acc <= short:
            stream = []
            for lines, bounds in missed:
                stream += lines if bounds is None else lines.tolist()
            distinct = len(set(stream))
            adjacent = sum(map(eq, stream, stream[1:]))
        else:
            distinct = self._distinct_union(missed)
            adjacent = count_adjacent(np.concatenate([lines for lines, _ in missed]))
        l2_hits = lru_hits(l2_acc, distinct, adjacent, self._l2_lines)
        return l1, CacheStats(l2_acc, l2_hits), (l2_acc - l2_hits) * line

    @staticmethod
    def _distinct_union(missed) -> int:
        """Distinct lines across several streams' misses.

        Streams whose line bounds overlap (one buffer read twice) are
        merged into one cluster and counted over its span; clusters are
        disjoint, so their counts add up.
        """
        parts = sorted(
            (bounds or (min(lines), max(lines)), i, lines)
            for i, (lines, bounds) in enumerate(missed)
        )
        distinct = 0
        cluster = []
        lo = hi = 0
        for (p_lo, p_hi), _, lines in parts:
            if cluster and p_lo > hi:
                distinct += count_distinct(np.concatenate(cluster), lo, hi)
                cluster = []
            if not cluster:
                lo, hi = p_lo, p_hi
            hi = max(hi, p_hi)
            cluster.append(lines)
        return distinct + count_distinct(np.concatenate(cluster), lo, hi)

    #: 32-lane subgroups-in-flight needed (per CU) to saturate DRAM
    #: bandwidth; wider subgroups (AMD's 64-lane wavefronts) carry
    #: proportionally more requests each, so fewer are needed.
    SUBGROUPS_FOR_PEAK_BW_PER_CU = 16.0

    def _memory_time_ns(self, dram_bytes: int, engaged_subgroups: float) -> float:
        if dram_bytes == 0:
            return 0.0
        width_factor = self.spec.preferred_subgroup_size / 32.0
        needed = self.spec.compute_units * self.SUBGROUPS_FOR_PEAK_BW_PER_CU / width_factor
        efficiency = max(
            self.MIN_MEM_EFFICIENCY, min(1.0, engaged_subgroups / needed)
        )
        bw_bytes_per_ns = self.spec.mem_bandwidth_gbs * efficiency  # GB/s == B/ns
        penalty = self.traits.usm_penalty if self.usm else 1.0
        return dram_bytes * penalty / bw_bytes_per_ns
