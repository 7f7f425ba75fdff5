"""Simulated USM memory manager.

SYgraph allocates graphs and frontiers through SYCL unified shared memory
(``malloc_shared``), with an opt-out to explicit device allocations on AMD
(Section 3.3).  The :class:`MemoryManager` reproduces the observable
behaviour the paper's evaluation depends on:

* a running total of device-resident bytes with a **timeline** — the traces
  behind Figure 9 (memory consumption during BFS);
* a **capacity limit** (device VRAM) whose violation raises
  :class:`~repro.errors.OutOfMemoryError` — the OOM entries of Table 6;
* per-allocation bookkeeping (kind, label) of every live buffer so tests
  can assert leak-freedom; a record is dropped when its buffer is freed.

Allocations return real NumPy arrays; the simulation is in the accounting,
not the data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AllocationFault, InvariantViolation, OutOfMemoryError


def _canary_value(dtype: np.dtype):
    """A recognizable per-dtype guard value (survives a dtype round-trip)."""
    if np.issubdtype(dtype, np.floating):
        return dtype.type(-123456.0)
    if dtype == np.bool_:
        return dtype.type(True)
    return dtype.type(0x5C % (int(np.iinfo(dtype).max) + 1))


def _poison_value(dtype: np.dtype):
    """A value that wrecks any computation still reading the buffer."""
    if np.issubdtype(dtype, np.floating):
        return dtype.type(np.nan)
    if dtype == np.bool_:
        return dtype.type(True)
    info = np.iinfo(dtype)
    return dtype.type(info.max if info.min == 0 else info.min // 2)


class UsmKind(enum.Enum):
    """USM allocation kind (SYCL 2020 §4.8)."""

    SHARED = "shared"   # malloc_shared: host+device accessible, migrated
    DEVICE = "device"   # malloc_device: device-only, explicit copies
    HOST = "host"       # malloc_host: pinned host memory


@dataclass
class Allocation:
    """One USM allocation; ``live`` turns False when it is freed."""

    alloc_id: int
    nbytes: int
    kind: UsmKind
    label: str
    array: Optional[np.ndarray]
    live: bool = True
    #: strict mode only: the padded backing array whose first/last
    #: ``guard`` elements hold canary values flanking the user view
    guard_base: Optional[np.ndarray] = None
    guard: int = 0


@dataclass
class MemoryEvent:
    """A point on the device-memory timeline (for Figure 9 traces)."""

    step: int
    total_bytes: int
    delta: int
    label: str


class MemoryManager:
    """Tracks simulated device memory for one queue/device.

    Parameters
    ----------
    capacity_bytes:
        Simulated VRAM size.  ``None`` disables the limit (useful in unit
        tests that are not about OOM behaviour).
    """

    def __init__(self, capacity_bytes: Optional[int] = None):
        self.capacity_bytes = capacity_bytes
        self._allocs: Dict[int, Allocation] = {}
        self._array_ids: Dict[int, int] = {}
        self._next_id = 0
        self._in_use = 0
        self._peak = 0
        self._step = 0
        self.timeline: List[MemoryEvent] = []
        # strict mode (repro.checking.invariants); both off by default so
        # benchmark runs pay nothing
        self._guard = 0
        self.poison_on_free = False
        #: observability hook (repro.obs.span.SpanTracer): receives every
        #: MemoryEvent so the trace exporter can draw a bytes-in-use
        #: counter track on the modeled timeline; None by default
        self.observer = None
        #: fault-injection hooks (repro.faults), wired by
        #: Queue.enable_fault_injection; None by default so malloc pays a
        #: single is-None check.  ``fault_clock`` supplies the modeled
        #: instant (the owning queue's kernel time) for ``after_ns`` rules.
        self.fault_injector = None
        self.fault_clock = None

    # ------------------------------------------------------------------ #
    # strict mode (opt-in; see repro.checking.invariants)                #
    # ------------------------------------------------------------------ #
    def enable_strict(self, guard: int = 8, poison: bool = True) -> None:
        """Guard future allocations with canary padding and poison frees.

        ``guard`` elements of canary value are placed before and after
        every subsequent allocation; :meth:`check_canaries` (and every
        :meth:`free`) verifies them, catching out-of-range writes into
        tracked buffers.  ``poison`` overwrites buffers with NaN/extreme
        values on free so use-after-free reads produce loudly wrong
        results instead of silently stale ones.
        """
        self._guard = int(guard)
        self.poison_on_free = poison

    def disable_strict(self) -> None:
        """Stop guarding new allocations (existing guards stay checked)."""
        self._guard = 0
        self.poison_on_free = False

    def check_canaries(self) -> None:
        """Verify the guard canaries of every live strict-mode allocation.

        Raises :class:`~repro.errors.InvariantViolation` naming the
        allocation and the violated side on the first corrupted guard.
        """
        for alloc in self._allocs.values():
            if alloc.guard_base is not None:
                self._check_one_canary(alloc)

    def _check_one_canary(self, alloc: Allocation) -> None:
        g, base = alloc.guard, alloc.guard_base
        canary = _canary_value(base.dtype)
        if (base[:g] != canary).any():
            raise InvariantViolation(
                f"buffer underflow: guard before {alloc.label or 'buffer'} "
                f"(alloc #{alloc.alloc_id}) was overwritten"
            )
        if (base[-g:] != canary).any():
            raise InvariantViolation(
                f"buffer overflow: guard after {alloc.label or 'buffer'} "
                f"(alloc #{alloc.alloc_id}) was overwritten"
            )

    # ------------------------------------------------------------------ #
    # allocation API                                                     #
    # ------------------------------------------------------------------ #
    def malloc(
        self,
        shape,
        dtype,
        kind: UsmKind = UsmKind.SHARED,
        label: str = "",
        fill=None,
    ) -> np.ndarray:
        """Allocate an array of ``shape``/``dtype`` on the device.

        ``fill`` optionally initializes the buffer (``0`` is a memset).
        Raises :class:`OutOfMemoryError` if the device capacity would be
        exceeded; host allocations do not count against device capacity.
        """
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * dtype.itemsize
        if self.fault_injector is not None and kind is not UsmKind.HOST:
            # checked before _charge so a failed allocation never perturbs
            # the byte totals (timeline, peak, leak accounting)
            now = self.fault_clock() if self.fault_clock is not None else 0.0
            fault = self.fault_injector.check("alloc", now, label=label, bytes=nbytes)
            if fault is not None:
                raise AllocationFault(
                    f"injected allocation failure for {label or 'buffer'} "
                    f"({nbytes} B, fault #{fault.seq})"
                )
        if kind is not UsmKind.HOST:
            self._charge(nbytes, label)
        guard_base = None
        if self._guard > 0:
            # strict mode: pad with canary guards; the user sees only the
            # middle view, so any out-of-range write lands on a canary
            g = self._guard
            guard_base = np.empty(count + 2 * g, dtype)
            canary = _canary_value(dtype)
            guard_base[:g] = canary
            guard_base[-g:] = canary
            arr = guard_base[g : g + count].reshape(shape)
            if fill is not None:
                arr[...] = fill
        elif fill is None:
            arr = np.empty(shape, dtype)
        elif fill == 0:
            arr = np.zeros(shape, dtype)
        else:
            arr = np.full(shape, fill, dtype)
        alloc = Allocation(
            self._next_id, nbytes, kind, label, arr, guard_base=guard_base, guard=self._guard
        )
        self._allocs[self._next_id] = alloc
        arr_id = self._next_id
        self._next_id += 1
        # Stash the id so free() can find the record from the array object.
        self._array_ids[id(arr)] = arr_id
        return arr

    def malloc_shared(self, shape, dtype, label: str = "", fill=None) -> np.ndarray:
        return self.malloc(shape, dtype, UsmKind.SHARED, label, fill)

    def malloc_device(self, shape, dtype, label: str = "", fill=None) -> np.ndarray:
        return self.malloc(shape, dtype, UsmKind.DEVICE, label, fill)

    def malloc_host(self, shape, dtype, label: str = "", fill=None) -> np.ndarray:
        return self.malloc(shape, dtype, UsmKind.HOST, label, fill)

    def free(self, array: np.ndarray) -> None:
        """Release an allocation previously returned by :meth:`malloc`."""
        arr_id = self._array_ids.pop(id(array), None)
        if arr_id is None:
            raise KeyError("array was not allocated by this MemoryManager, or was already freed")
        self._release(self._allocs[arr_id])

    def free_since(self, first_id: int) -> None:
        """Release every live allocation whose id is at least ``first_id``,
        oldest first.  Ids only grow, so ``first_id = next_id`` read
        before a block names exactly what the block allocated and still
        holds (:meth:`repro.sycl.queue.Queue.scope`)."""
        for alloc in [a for i, a in self._allocs.items() if i >= first_id]:
            del self._array_ids[id(alloc.array)]
            self._release(alloc)

    def _release(self, alloc: Allocation) -> None:
        if alloc.guard_base is not None:
            self._check_one_canary(alloc)
        del self._allocs[alloc.alloc_id]
        if self.poison_on_free and alloc.array is not None:
            alloc.array[...] = _poison_value(alloc.array.dtype)
        alloc.live = False
        alloc.array = None
        alloc.guard_base = None
        if alloc.kind is not UsmKind.HOST:
            self._in_use -= alloc.nbytes
            self._record(-alloc.nbytes, f"free:{alloc.label}")

    # ------------------------------------------------------------------ #
    # accounting                                                          #
    # ------------------------------------------------------------------ #
    def _charge(self, nbytes: int, label: str) -> None:
        if self.capacity_bytes is not None and self._in_use + nbytes > self.capacity_bytes:
            raise OutOfMemoryError(nbytes, self._in_use, self.capacity_bytes, label)
        self._in_use += nbytes
        self._peak = max(self._peak, self._in_use)
        self._record(nbytes, f"alloc:{label}")

    def _record(self, delta: int, label: str) -> None:
        event = MemoryEvent(self._step, self._in_use, delta, label)
        self.timeline.append(event)
        self._step += 1
        if self.observer is not None:
            self.observer.on_memory(event)

    def tick(self, label: str = "") -> None:
        """Record a timeline sample without changing usage.

        Benchmarks call this once per algorithm iteration so Figure 9's
        memory-vs-time traces have samples even in steady state.
        """
        self._record(0, label or "tick")

    @property
    def bytes_in_use(self) -> int:
        return self._in_use

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def next_id(self) -> int:
        """The id the next allocation gets; ids only grow."""
        return self._next_id

    @property
    def live_allocations(self) -> List[Allocation]:
        """Live allocations, oldest first."""
        return list(self._allocs.values())

    def usage_trace(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (step, total_bytes) arrays of the timeline for plotting."""
        steps = np.array([e.step for e in self.timeline], dtype=np.int64)
        totals = np.array([e.total_bytes for e in self.timeline], dtype=np.int64)
        return steps, totals

    def reset_timeline(self) -> None:
        self.timeline.clear()
        self._step = 0
