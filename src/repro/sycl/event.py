"""SYCL events.

Each primitive "returns an event for host-side waits" (paper Section 3.1).
In the simulator an event is complete as soon as the kernel body has run;
``wait()`` exists so algorithm code matches Listing 1 and so profiling info
can be queried per submission, like SYCL's
``event.get_profiling_info<command_end>()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.perfmodel.cost import KernelCost
    from repro.sycl.profiling import ProfileLog


class Event:
    """Handle to one completed simulated kernel submission.

    The queue prices its kernels in batches, so the event holds the
    kernel's place in the queue's :class:`~repro.sycl.profiling.ProfileLog`;
    reading :attr:`cost` (or :meth:`profiling_ns`) prices the pending batch
    if the kernel is in it, and returns the object ``log.costs`` holds.
    """

    __slots__ = ("kernel_name", "seq", "_cost", "_log", "_index", "_complete")

    def __init__(self, kernel_name: str, seq: int, log: "ProfileLog", index: int):
        self.kernel_name = kernel_name
        self.seq = seq
        #: the kernel's place in ``log``; dropped once the cost is read
        self._log: Optional["ProfileLog"] = log
        self._index = index
        self._cost: Optional["KernelCost"] = None
        self._complete = True

    @property
    def cost(self) -> "KernelCost":
        """The kernel's cost."""
        if self._log is not None:
            self._cost = self._log.cost(self._index)
            self._log = None
        return self._cost

    def wait(self) -> "Event":
        """Block until the kernel completes (a no-op in the simulator)."""
        self._complete = True
        return self

    @property
    def is_complete(self) -> bool:
        return self._complete

    def profiling_ns(self) -> float:
        """Simulated kernel duration in nanoseconds."""
        return self.cost.time_ns
