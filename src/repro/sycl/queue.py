"""The SYCL queue: kernel submission and per-device state.

"A queue in SYCL is used for submitting kernels and transferring data with
its linked device.  Developers must specify the queue before allocating a
graph or frontier object to select the offloading device." (paper §3.3)

In the simulator a :class:`Queue` owns

* the target :class:`~repro.sycl.device.Device`;
* a :class:`~repro.sycl.memory.MemoryManager` sized to the device VRAM;
* a :class:`~repro.perfmodel.cost.CostModel` that prices every submitted
  kernel, accumulating the simulated timeline that benchmarks report.

Operators call :meth:`Queue.submit` with a
:class:`~repro.perfmodel.cost.KernelWorkload` *after* having computed the
kernel's effect with vectorized NumPy; the queue returns an
:class:`~repro.sycl.event.Event` whose cost is priced, with every other
kernel submitted since the last sync point, when the host first reads it
or the queue's clock — like a SYCL kernel, which runs asynchronously
until the host waits on it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from repro.sycl.device import Device, TunedParameters, nvidia_v100s

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.obs.span import SpanTracer
    from repro.perfmodel.cost import KernelWorkload
from repro.errors import KernelLaunchError
from repro.obs.metrics import ScanStats
from repro.obs.span import NULL_SPAN as _NULL_SPAN
from repro.sycl.event import Event
from repro.sycl.memory import MemoryEvent, MemoryManager
from repro.sycl.profiling import ProfileLog


class Queue:
    """An in-order simulated SYCL queue.

    Parameters
    ----------
    device:
        Target device; defaults to the V100S profile (machine A).
    capacity_limit:
        Override the simulated VRAM limit (None = use device spec;
        ``0`` disables OOM checking entirely).
    memory_mode:
        ``"shared"`` (default) allocates graphs/frontiers in USM shared
        memory; ``"device"`` models explicit device allocations + copies.
        Paper §3.3: on AMD, Xnack-driven USM is suboptimal, so "developers
        can choose between USM and explicit memory allocation at compile
        time" — the device mode drops the backend's USM traffic penalty.
    """

    def __init__(
        self,
        device: Optional[Device] = None,
        capacity_limit: Optional[int] = None,
        memory_mode: str = "shared",
    ):
        self.device = device or nvidia_v100s()
        if capacity_limit == 0:
            cap = None
        elif capacity_limit is not None:
            cap = capacity_limit
        else:
            cap = self.device.spec.vram_bytes
        from repro.perfmodel.cost import CostModel  # deferred: import cycle

        if memory_mode not in ("shared", "device"):
            raise ValueError(f"memory_mode must be 'shared' or 'device', got {memory_mode!r}")
        self.memory_mode = memory_mode
        self.memory = MemoryManager(cap)
        self.cost_model = CostModel(self.device, usm=(memory_mode == "shared"))
        self.profile = ProfileLog(self.cost_model)
        self._seq = 0
        #: strict-mode hook (repro.checking.invariants); None by default so
        #: submission pays a single is-None check when checking is off
        self.invariant_checker = None
        #: observability hook (repro.obs.span.SpanTracer); None by default
        #: so tracing-off submission pays a single is-None check and the
        #: modeled timeline is bit-identical either way
        self.tracer = None
        #: hit/miss totals of the memoized scans of this queue's frontiers
        #: (the tracer's own instance once tracing is enabled)
        self.scan_stats = ScanStats()
        #: fault-injection hook (repro.faults.FaultInjector); None by
        #: default — injection-off submission pays one is-None check and
        #: the modeled timeline is bit-identical either way
        self.fault_injector = None
        #: the device inspector's default parameters, once asked for
        self._tuned: Optional[TunedParameters] = None

    # ------------------------------------------------------------------ #
    def submit(self, workload: "KernelWorkload") -> Event:
        """Launch one kernel and return its completion event.

        Submitting does not price the kernel: the queue copies its
        address streams into the pending batch of :attr:`profile`, which
        prices the batch at the next sync point (a read of
        :attr:`elapsed_ns`, of the log, or of a pending event's cost; see
        :class:`~repro.sycl.profiling.ProfileLog`).  Only a kernel with a
        stream longer than :data:`~repro.perfmodel.cost.LARGE_STREAM` has
        its memory traffic priced here, which needs no copy.  The batch
        keeps no reference to the workload, so the caller may reuse or
        drop it and its arrays.

        With a fault injector attached, the ``kernel_launch`` site is
        checked *before* the kernel is queued: a fired fault raises
        :class:`~repro.errors.KernelLaunchError` and leaves the profile,
        sequence counter, and memory accounting untouched, exactly like a
        launch the real runtime rejected.  The check reads the modeled
        clock, so every kernel before it is priced first.
        """
        if self.fault_injector is not None:
            fault = self.fault_injector.check(
                "kernel_launch", self.profile.total_ns, kernel=workload.name
            )
            if fault is not None:
                raise KernelLaunchError(
                    f"injected kernel-launch failure for {workload.name!r} "
                    f"(fault #{fault.seq})"
                )
        profile = self.profile
        ev = Event(workload.name, self._seq, profile, profile.enqueue(workload))
        self._seq += 1
        if self.tracer is not None:
            # the tracer places the kernel on its timeline now: reading the
            # cost prices the pending batch, which holds just this kernel
            self.tracer.on_kernel(workload.name, ev.seq, ev.cost)
        if self.invariant_checker is not None:
            self.invariant_checker.after_kernel(self, workload)
        return ev

    def wait(self) -> None:
        """Block until all submitted kernels complete (no-op: in-order sim)."""

    # span tracing ------------------------------------------------------------
    def enable_tracing(self, tracer: Optional["SpanTracer"] = None) -> "SpanTracer":
        """Attach a hierarchical span tracer (:mod:`repro.obs`) to this queue.

        Subsequent ``submit()`` calls attribute their kernel cost to the
        innermost span opened via :meth:`span`, the memory manager
        reports its timeline to the tracer's bytes-in-use counter track,
        and this queue's frontiers count their scans on the tracer's
        :class:`~repro.obs.metrics.ScanStats`, so the trace's scan
        counters start from zero whatever the queue ran before.
        Returns the tracer (a fresh one unless provided).
        """
        from repro.obs.span import SpanTracer

        self.tracer = tracer or SpanTracer()
        self.memory.observer = self.tracer
        self.scan_stats = self.tracer.scan_stats
        # seed the memory counter track with the current resident total
        self.tracer.on_memory(
            MemoryEvent(step=-1, total_bytes=self.memory.bytes_in_use, delta=0, label="tracing.enabled")
        )
        return self.tracer

    def disable_tracing(self) -> None:
        """Detach the tracer; the queue returns to the zero-cost path."""
        self.tracer = None
        self.memory.observer = None

    # fault injection ---------------------------------------------------------
    def enable_fault_injection(self, injector) -> None:
        """Arm a :class:`~repro.faults.FaultInjector` on this queue.

        Wires the ``kernel_launch`` site here and the ``alloc`` site on
        the memory manager; the allocator's ``after_ns`` clock is this
        queue's accumulated kernel time.
        """
        self.fault_injector = injector
        self.memory.fault_injector = injector
        self.memory.fault_clock = lambda: self.profile.total_ns

    def disable_fault_injection(self) -> None:
        """Detach the injector; submit/malloc return to the zero-cost path."""
        self.fault_injector = None
        self.memory.fault_injector = None
        self.memory.fault_clock = None

    def span(self, name: str, arg=None, attrs=None):
        """Context manager opening a named span on the tracer.

        With tracing off this returns the shared no-op span, so callers
        can write ``with queue.span("bfs.iter", k):`` unconditionally.
        ``attrs`` (trace_id, attempt, …) land in the exported event args.
        """
        tracer = self.tracer
        if tracer is None:
            return _NULL_SPAN
        return tracer.span(name, arg, attrs)

    # convenience passthroughs ------------------------------------------------
    def malloc_shared(self, shape, dtype, label: str = "", fill=None):
        return self.memory.malloc_shared(shape, dtype, label, fill)

    def malloc_device(self, shape, dtype, label: str = "", fill=None):
        return self.memory.malloc_device(shape, dtype, label, fill)

    def free(self, array) -> None:
        self.memory.free(array)

    @contextmanager
    def scope(self):
        """Own every buffer allocated inside the block.

        On exit, exceptions included, the block's allocations that are
        still live are freed in allocation order, and the frontiers made
        inside it leave the strict-mode sweep (a caller that keeps the
        exception keeps them alive, freed).  Each algorithm entry point
        runs its body, result copy included, in one scope, so a run
        leaves the device as it found it.  A buffer that an object made
        outside the block allocates inside it is freed too.
        """
        first_id = self.memory.next_id
        try:
            yield
        finally:
            if self.invariant_checker is not None:
                self.invariant_checker.forget_since(first_id)
            self.memory.free_since(first_id)

    def inspect(self, **kwargs) -> TunedParameters:
        """Run the device inspector for this queue's device.  Its default
        parameters are computed once per queue: every advance reads them."""
        if kwargs:
            return self.device.inspect(**kwargs)
        if self._tuned is None:
            self._tuned = self.device.inspect()
        return self._tuned

    @property
    def elapsed_ns(self) -> float:
        """Total simulated kernel time accumulated on this queue (a sync
        point: prices the pending batch)."""
        return self.profile.total_ns

    def reset_profile(self) -> None:
        """Start a new, empty profile log.  Kernels still pending in the
        old one are priced first, so their events keep their costs."""
        self.profile.flush()
        self.profile = ProfileLog(self.cost_model)
