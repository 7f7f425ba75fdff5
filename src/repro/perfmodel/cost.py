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
  kernel's streams takes time linear in its accesses, and a batch of
  kernels is priced in one vectorized pass (see ``docs/architecture.md``).
* **atomics** — serialized per contended location; frontiers that funnel
  many duplicate inserts into the same words (scale-free graphs) pay here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, eq
from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from repro.perfmodel.cache import (
    MARK_SPAN_BASE,
    MARK_SPAN_PER_ACCESS,
    SHORT_STREAM,
    CacheStats,
    count_adjacent,
    count_distinct,
    count_distinct_segments,
    lru_hits,
)
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
    #: the memory-hierarchy counts of ``streams`` (L1 accesses and hits,
    #: L2 accesses and hits) when the kernel carries them from an earlier
    #: pricing of the same streams on the same device, as the all-vertex
    #: advance does (:mod:`repro.operators.advance`); None = price the
    #: streams.  A workload built from this one's streams and others
    #: (:func:`repro.exec.fusion.fuse_workloads`) does not carry them.
    memory: Optional[tuple] = None

    def add_stream(
        self,
        addresses: np.ndarray,
        item_bytes: int,
        region: int,
        is_write: bool = False,
        label: str = "",
    ) -> None:
        if not isinstance(addresses, np.ndarray):
            addresses = np.asarray(addresses)
        self.streams.append(AccessStream(addresses, item_bytes, region, is_write, label))


#: a kernel with a stream of more accesses than this has its memory
#: hierarchy priced as it is added to a batch, one stream at a time:
#: NumPy's per-call overhead, which the memory pass amortizes, is a small
#: share of its cost then, its arrays stay cache-sized, and it needs no
#: copy (the measurement is in docs/architecture.md)
LARGE_STREAM = 4096
#: a batch's memory hierarchy is priced one kernel at a time while its
#: kernels plus its streams longer than SHORT_STREAM number fewer than
#: this: the memory pass costs about as much as that many short kernels,
#: or long streams, priced alone, however little it prices (the tracer
#: and the fault injector price batches of one; docs/architecture.md)
SMALL_BATCH = 16
#: what :meth:`KernelBatch.add` records of a kernel's launch for pricing,
#: one column each, in this order
LAUNCH_COLUMNS = (
    "num_workgroups",
    "total_lanes",
    "subgroup_size",
    "active_lanes",
    "instructions_per_lane",
    "serial_ops",
    "atomics",
    "atomic_targets",
    "engaged_subgroups",
)


class KernelBatch:
    """Kernels waiting for one :meth:`CostModel.price` pass.

    :meth:`add` keeps what pricing reads of a kernel, not the workload: its
    name, geometry and launch fields, and a copy of its address streams,
    one after another in one int64 buffer, with each stream's size, item
    bytes and region.  So a kernel is priced on the addresses it had when
    it was added even if its caller reuses the arrays (the 2LB frontier's
    ``offsets`` buffer is one), and the caller's arrays are freed as soon
    as the caller drops them.  A kernel with a stream of more than
    :data:`LARGE_STREAM` accesses has its memory hierarchy priced right
    away instead, which needs no copy, and a kernel that carries its
    counts (:attr:`KernelWorkload.memory`) has them recorded as they are.
    """

    def __init__(self, model: "CostModel", workloads: Iterable[KernelWorkload] = ()):
        self.model = model
        self.names: List[str] = []
        self.geometries: List[WorkgroupGeometry] = []
        #: per kernel, its :data:`LAUNCH_COLUMNS`
        self.launches: List[tuple] = []
        #: per kernel, its memory-hierarchy counts if priced on adding
        self.memory: List[Optional[tuple]] = []
        #: per kernel, its streams as ``(buffer, streams)``: the buffer
        #: holds their addresses one stream after another, the list one
        #: ``(size, item_bytes, region)`` per stream (None if priced on
        #: adding)
        self.streams: List[Optional[tuple]] = []
        #: accesses held in the buffers
        self.accesses = 0
        #: held streams longer than SHORT_STREAM
        self.long_streams = 0
        for wl in workloads:
            self.add(wl)

    def __len__(self) -> int:
        return len(self.launches)

    def add(self, wl: KernelWorkload) -> None:
        if wl.memory is not None:
            # counts carried from an earlier pricing: nothing is copied
            # or priced
            self.memory.append(wl.memory)
            self.streams.append(None)
        else:
            arrays, streams = [], []
            accesses = long_streams = 0
            for s in wl.streams:
                addresses = s.addresses
                size = addresses.size
                arrays.append(addresses)
                streams.append((size, s.item_bytes, s.region))
                accesses += size
                if size > SHORT_STREAM:
                    long_streams += 1
            if not streams:
                self.memory.append(_NO_MEMORY)
                self.streams.append(None)
            elif accesses > LARGE_STREAM and max(size for size, _, _ in streams) > LARGE_STREAM:
                # priced now, from the caller's arrays: nothing is copied
                self.memory.append(self.model.memory_counts(wl.streams))
                self.streams.append(None)
            else:
                self.memory.append(None)
                self.streams.append((np.concatenate(arrays, dtype=np.int64, casting="unsafe"), streams))
                self.accesses += accesses
                self.long_streams += long_streams
        geometry = wl.geometry
        self.names.append(wl.name)
        self.geometries.append(geometry)
        self.launches.append(
            (
                geometry.num_workgroups,
                geometry.total_lanes,
                geometry.subgroup_size,
                wl.active_lanes,
                wl.instructions_per_lane,
                wl.serial_ops,
                wl.atomics,
                wl.atomic_targets,
                wl.engaged_subgroups,
            )
        )


def _held_streams(held: tuple) -> list:
    """A held kernel's streams as ``(addresses, item_bytes, region)``, the
    addresses slices of its buffer."""
    buffer, streams = held
    sliced, start = [], 0
    for size, item, region in streams:
        sliced.append((buffer[start : start + size], item, region))
        start += size
    return sliced


#: the memory-hierarchy counts of a kernel without streams
_NO_MEMORY = (0, 0, 0, 0)

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


class PricedBatch(NamedTuple):
    """The costs of a batch of kernels as columns, one entry per kernel in
    submit order; :meth:`costs` builds the :class:`KernelCost` objects."""

    names: List[str]
    time_ns: np.ndarray
    compute_ns: np.ndarray
    memory_ns: np.ndarray
    launch_ns: float
    #: rows of L1 accesses, L1 hits, L2 accesses, L2 hits
    memory: np.ndarray
    dram_bytes: np.ndarray
    occupancy: List[float]
    active_lane_fraction: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    def costs(self) -> List[KernelCost]:
        """One :class:`KernelCost` per kernel, its fields Python ints and
        floats."""
        launch_ns = self.launch_ns
        l1_acc, l1_hits, l2_acc, l2_hits = self.memory.tolist()
        columns = zip(
            self.names,
            self.time_ns.tolist(),
            self.compute_ns.tolist(),
            self.memory_ns.tolist(),
            l1_acc,
            l1_hits,
            l2_acc,
            l2_hits,
            self.dram_bytes.tolist(),
            self.occupancy,
            self.active_lane_fraction.tolist(),
        )
        return [
            KernelCost(
                name, time, compute, memory, launch_ns, CacheStats(a1, h1), CacheStats(a2, h2), dram, occ, frac
            )
            for name, time, compute, memory, a1, h1, a2, h2, dram, occ, frac in columns
        ]


#: what :meth:`CostModel._price_launches` reads of a geometry to tell
#: distinct ones apart (its dataclass fields)
_GEOMETRY_KEY = attrgetter("global_size", "workgroup_size", "subgroup_size")


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
        # log2 of the line, a power of two (DeviceSpec)
        self._line_shift = line.bit_length() - 1
        self._launch_ns = self.traits.launch_overhead_us * 1_000.0
        self._throughput = max(1, spec.compute_units * self.LANES_PER_CU_PER_CYCLE)
        # subgroups in flight that saturate DRAM bandwidth device-wide
        width_factor = spec.preferred_subgroup_size / 32.0
        self._peak_subgroups = spec.compute_units * self.SUBGROUPS_FOR_PEAK_BW_PER_CU / width_factor

    # ------------------------------------------------------------------ #
    def charge(self, wl: KernelWorkload) -> KernelCost:
        """Price one kernel: a batch of one."""
        return self.charge_many([wl])[0]

    def charge_many(self, workloads) -> List[KernelCost]:
        """Price several kernels, in order.

        ``workloads`` is a :class:`KernelBatch`, whose streams were copied
        when each kernel was added, or any sequence of workloads, which is
        captured now.  Each cost equals what pricing its kernel alone gives;
        its fields are Python ints and floats.
        """
        return self.price(workloads).costs()

    def price(self, workloads) -> PricedBatch:
        """:meth:`charge_many`'s costs as columns, without building a
        :class:`KernelCost` per kernel."""
        batch = workloads if isinstance(workloads, KernelBatch) else KernelBatch(self, workloads)
        if len(batch) + batch.long_streams >= SMALL_BATCH:
            memory = self._batch_memory(batch)
        else:
            memory = np.array(
                [
                    counts or self._kernel_memory(_held_streams(held))
                    for counts, held in zip(batch.memory, batch.streams)
                ],
                dtype=np.int64,
            ).reshape(-1, 4).T
        return self._price_launches(batch, memory)

    def _price_launches(self, batch: KernelBatch, memory: np.ndarray) -> PricedBatch:
        """The launch half of pricing, for every kernel of ``batch`` at once:
        compute, memory and dispatch time, DRAM bytes, occupancy and lane
        fraction, from the launch fields and ``memory``'s counts.

        Each formula runs in float64 with the operations, and their order,
        of scalar Python arithmetic, so every field equals what pricing the
        kernel alone with Python floats gives.  The launch fields are ints
        below 2^53, exact in float64; a missing ``engaged_subgroups`` (None)
        becomes NaN.
        """
        kernels = len(batch)
        columns = np.array(batch.launches, dtype=np.float64).reshape(kernels, len(LAUNCH_COLUMNS)).T
        workgroups, total_lanes, subgroup, active, instructions, serial, atomics, targets, engaged = columns

        # All scheduled lanes burn slots for the kernel's instruction count.
        cycles = (total_lanes * instructions + serial) / self._throughput
        # Atomics: aggregate throughput cost, floored by the longest
        # serialization chain on one location (chains on distinct targets
        # proceed in parallel).
        aggregate = atomics * self.ATOMIC_CYCLES / self._throughput
        chain = (atomics / np.maximum(1, np.where(targets != 0, targets, atomics))) * self.ATOMIC_CYCLES
        cycles = np.where(atomics != 0, cycles + np.maximum(aggregate, chain), cycles)
        compute_ns = cycles / self.spec.clock_ghz  # GHz -> ns per cycle

        dram_bytes = (memory[2] - memory[3]) * self.spec.l1_line_bytes
        engaged = np.where(np.isnan(engaged), active / np.maximum(1, subgroup), engaged)
        efficiency = np.maximum(self.MIN_MEM_EFFICIENCY, np.minimum(1.0, engaged / self._peak_subgroups))
        bw_bytes_per_ns = self.spec.mem_bandwidth_gbs * efficiency  # GB/s == B/ns
        penalty = self.traits.usm_penalty if self.usm else 1.0
        memory_ns = dram_bytes * penalty / bw_bytes_per_ns

        dispatch_ns = workgroups * self.WG_DISPATCH_NS
        time_ns = self._launch_ns + np.maximum(np.maximum(compute_ns, memory_ns), dispatch_ns)
        fraction = np.divide(active, total_lanes, out=np.zeros(kernels), where=total_lanes != 0)

        # one achieved_occupancy call per distinct geometry
        keys = list(map(_GEOMETRY_KEY, batch.geometries))
        distinct = dict(zip(keys, batch.geometries))
        occupancy_of = {key: achieved_occupancy(geometry, self.spec) for key, geometry in distinct.items()}
        return PricedBatch(
            batch.names,
            time_ns,
            compute_ns,
            memory_ns,
            self._launch_ns,
            memory,
            dram_bytes,
            list(map(occupancy_of.__getitem__, keys)),
            fraction,
        )

    # ------------------------------------------------------------------ #
    # one kernel at a time
    def memory_counts(self, streams: Iterable[AccessStream]) -> tuple:
        """L1 accesses and hits, L2 accesses and hits of a kernel with
        these streams, priced now: the counts a :class:`KernelWorkload`
        may carry in ``memory``."""
        return self._kernel_memory([(s.addresses, s.item_bytes, s.region) for s in streams])

    def _kernel_memory(self, streams) -> tuple:
        """L1 accesses and hits, L2 accesses and hits of one kernel's
        ``(addresses, item_bytes, region)`` streams, one stream at a time.

        Each stream goes through L1 on its own: real L1s keep concurrently
        streamed regions in distinct sets, and the ordering information
        (sequential vs scattered) lives within a stream.  The misses fall
        through to the device-wide L2, which sees the thinned misses of all
        the kernel's streams in stream order: distinct lines and repeats
        count across stream boundaries.

        Lines are counted within each stream's region: a region starts on
        a line boundary, so no count within it depends on its offset, and
        regions never share a line.  So L2 repeats are each stream's own
        plus one test at each boundary between consecutive streams of one
        region, and distinct lines are counted per region.

        A stream longer than :data:`SHORT_STREAM` is priced by
        :meth:`_long_stream`, once per array object and item size in this
        call: a stream that reads the same array again at another region
        (an advance reads ``col_idx`` and ``weights`` at the same edge ids)
        takes the earlier stream's counts, and the distinct lines of its
        region when it is the only stream there.
        """
        line, l1_lines = self.spec.l1_line_bytes, self._l1_lines
        l1_acc = l1_hits = l2_acc = 0
        # per stream with misses: its region, the lines of its thinned
        # misses, their adjacent repeats, and its _long_stream counts
        # (None for a short stream's list)
        missed = []
        # the long streams priced so far, by array object and item size
        priced = {}
        for addresses, item, region in streams:
            n = addresses.size
            if n == 0:
                continue
            if n > SHORT_STREAM:
                key = (id(addresses), item)
                counts = priced.get(key)
                if counts is None:
                    counts = priced[key] = self._long_stream(addresses, item)
                hits, lines, adjacent = counts[:3]
                missed.append((region, lines, adjacent, counts))
                l1_acc += n
                l1_hits += hits
                l2_acc += n - hits
                continue
            lines = [a * item // line for a in addresses.tolist()]
            adjacent = sum(map(eq, lines, lines[1:]))
            hits = lru_hits(n, len(set(lines)), adjacent, l1_lines)
            l1_acc += n
            l1_hits += hits
            m = n - hits
            if m == 0:
                continue
            # L2 sees the m misses thinned to the m accesses
            # np.linspace(0, n-1, m) indexes, computed in the float64
            # arithmetic it performs
            if m == 1:
                lines, adjacent = lines[:1], 0
            elif m < n:
                step = (n - 1) / (m - 1)
                lines = [lines[int(j * step)] for j in range(m - 1)] + lines[-1:]
                adjacent = sum(map(eq, lines, lines[1:]))
            missed.append((region, lines, adjacent, None))
            l2_acc += m
        if l2_acc == 0:
            return l1_acc, l1_hits, 0, 0
        adjacent, last = 0, None
        by_region = {}
        for region, lines, repeats, counts in missed:
            adjacent += repeats + (last == (region, lines[0]))
            last = region, lines[-1]
            by_region.setdefault(region, []).append((lines, counts))
        distinct = 0
        for parts in by_region.values():
            counts = parts[0][1]
            if len(parts) == 1 and counts is not None:
                # one long stream: its thinned lines' distinct count, once
                # per array object and item size
                if counts[4] is None:
                    counts[4] = count_distinct(counts[1], *counts[3])
                distinct += counts[4]
            elif all(counts is None for _, counts in parts):
                distinct += len(set().union(*(lines for lines, _ in parts)))
            else:
                bounds = [counts[3] if counts else (min(lines), max(lines)) for lines, counts in parts]
                distinct += count_distinct(
                    np.concatenate([lines for lines, _ in parts]),
                    min(lo for lo, _ in bounds),
                    max(hi for _, hi in bounds),
                )
        return l1_acc, l1_hits, l2_acc, lru_hits(l2_acc, distinct, adjacent, self._l2_lines)

    def _long_stream(self, addresses: np.ndarray, item: int) -> list:
        """L1 hits, the lines of the thinned misses, their adjacent
        repeats, the line bounds and the thinned lines' distinct count
        (None until counted) of a stream of more than :data:`SHORT_STREAM`
        accesses, its lines counted within its region.  A stream has at
        least one distinct line, so at least one miss."""
        # every device's line is a power of two (DeviceSpec), so is any
        # item size that divides it: line ids are one right shift
        line = self.spec.l1_line_bytes
        if line % item == 0:
            shift = (line // item).bit_length() - 1
            lines = np.right_shift(addresses, shift, dtype=np.int64, casting="unsafe")
        else:
            lines = np.multiply(addresses, item, dtype=np.int64, casting="unsafe")
            lines >>= self._line_shift
        n = lines.size
        adjacent = count_adjacent(lines)
        # lines that never decrease are distinct wherever they change; an
        # unsorted stream almost always shows it in its first few lines or
        # in every SHORT_STREAM-th line (an advance's dst reads start with
        # one vertex's sorted neighbours), and a sorted stream's sample is
        # sorted too
        head, sample = lines[:SHORT_STREAM], lines[::SHORT_STREAM]
        ordered = bool(
            (head[1:] >= head[:-1]).all()
            and (sample[1:] >= sample[:-1]).all()
            and (lines[1:] >= lines[:-1]).all()
        )
        if ordered:
            bounds = int(lines[0]), int(lines[-1])
            distinct = n - adjacent
        else:
            hi = int(lines.max())
            # few enough lines from line 0 up to mark: no minimum, and
            # count_distinct subtracts nothing
            lo = 0 if hi < MARK_SPAN_PER_ACCESS * n + MARK_SPAN_BASE else int(lines.min())
            bounds = lo, hi
            distinct = count_distinct(lines, lo, hi)
        hits = lru_hits(n, distinct, adjacent, self._l1_lines)
        m = n - hits
        # L2 sees the m misses thinned to the m accesses
        # np.linspace(0, n-1, m) indexes, computed in the float64
        # arithmetic it performs
        if m == 1:
            lines, adjacent = lines[:1], 0
        elif m < n:
            idx = np.arange(m, dtype=np.float64)
            idx *= (n - 1) / (m - 1)
            idx = idx.astype(np.int64)
            idx[-1] = n - 1
            lines = lines[idx]
            adjacent = count_adjacent(lines)
        # thinning keeps sorted lines sorted: distinct where they change
        return [hits, lines, adjacent, bounds, lines.size - adjacent if ordered else None]

    # ------------------------------------------------------------------ #
    # the whole batch at once
    def _batch_memory(self, batch: KernelBatch) -> np.ndarray:
        """:meth:`_kernel_memory` for every kernel of ``batch`` at once:
        rows of L1 accesses and hits, L2 accesses and hits, one column per
        kernel.  Repeats and distinct lines never count across kernels."""
        kernels = len(batch)
        counts = np.zeros((4, kernels), dtype=np.int64)
        for k, memory in enumerate(batch.memory):
            if memory is not None:
                counts[:, k] = memory
        held = [k for k, streams in enumerate(batch.streams) if streams is not None]
        if not held:
            return counts
        buffers, streams = zip(*map(batch.streams.__getitem__, held))
        n, items, regions = np.array(list(chain.from_iterable(streams)), dtype=np.int64).T
        nonempty = n > 0
        if not nonempty.any():
            return counts
        n, items, regions = n[nonempty], items[nonempty], regions[nonempty]
        kernel = np.repeat(held, list(map(len, streams)))[nonempty]
        starts = np.cumsum(n) - n
        # line ids within each stream's region: a region starts on a line
        # boundary, so its offset changes no count within the region
        lines = np.concatenate(buffers)
        lines *= np.repeat(items, n)
        lines >>= self._line_shift
        lo = np.minimum.reduceat(lines, starts)
        hi = np.maximum.reduceat(lines, starts)

        # L1, per stream
        repeat = np.empty(lines.size, dtype=np.bool_)
        np.equal(lines[1:], lines[:-1], out=repeat[1:])
        repeat[starts] = False
        adjacent = np.add.reduceat(repeat, starts, dtype=np.int64)
        distinct = count_distinct_segments(lines, np.repeat(np.arange(n.size), n), lo, hi, n)
        hits = lru_hits(n, distinct, adjacent, self._l1_lines)
        misses = n - hits

        def per_kernel(values, of=kernel):
            return np.bincount(of, weights=values, minlength=kernels).astype(np.int64)

        counts[0] += per_kernel(n)
        counts[1] += per_kernel(hits)
        counts[2] += per_kernel(misses)
        missed = misses > 0
        if not missed.any():
            return counts

        # L2 sees the m misses of an n-access stream thinned to the m
        # accesses np.linspace(0, n-1, m) indexes, computed in the float64
        # arithmetic it performs: trunc(j * ((n-1)/(m-1))) for j < m-1,
        # then n-1; the first access when m == 1
        m, n, kernel, regions = misses[missed], n[missed], kernel[missed], regions[missed]
        first = np.cumsum(m) - m
        owner = np.repeat(np.arange(m.size), m)
        step = (n - 1) / np.maximum(m - 1, 1)
        idx = ((np.arange(owner.size) - first[owner]) * step[owner]).astype(np.int64)
        several = m > 1
        idx[(first + m - 1)[several]] = n[several] - 1
        l2_lines = lines[idx + starts[missed][owner]]

        # repeats within a kernel, across its stream boundaries
        l2_kernel, l2_region = kernel[owner], regions[owner]
        repeat = l2_lines[1:] == l2_lines[:-1]
        repeat &= l2_kernel[1:] == l2_kernel[:-1]
        repeat &= l2_region[1:] == l2_region[:-1]
        adjacent = np.bincount(l2_kernel[1:][repeat], minlength=kernels)
        # distinct lines per (kernel, region): regions never share a line
        key = kernel * (int(regions.max()) + 1) + regions
        order = np.argsort(key, kind="stable")
        key = key[order]
        new_group = np.empty(key.size, dtype=np.bool_)
        new_group[0] = True
        np.not_equal(key[1:], key[:-1], out=new_group[1:])
        group_starts = np.flatnonzero(new_group)
        group = np.empty(key.size, dtype=np.int64)
        group[order] = np.cumsum(new_group) - 1
        group_distinct = count_distinct_segments(
            l2_lines,
            group[owner],
            np.minimum.reduceat(lo[missed][order], group_starts),
            np.maximum.reduceat(hi[missed][order], group_starts),
            np.add.reduceat(m[order], group_starts),
        )
        distinct = per_kernel(group_distinct, kernel[order][group_starts])
        # kernels priced on adding have no lines here
        l2 = distinct > 0
        counts[3, l2] = lru_hits(counts[2, l2], distinct[l2], adjacent[l2], self._l2_lines)
        return counts

    #: 32-lane subgroups-in-flight needed (per CU) to saturate DRAM
    #: bandwidth; wider subgroups (AMD's 64-lane wavefronts) carry
    #: proportionally more requests each, so fewer are needed.
    SUBGROUPS_FOR_PEAK_BW_PER_CU = 16.0
