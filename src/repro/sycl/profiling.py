"""Aggregation of simulated kernel costs.

The benchmark harness reads per-queue :class:`ProfileLog` objects to build
the paper's figures: total simulated time (Figures 7, 8, 10), and per-kernel
peak L1 hit-rate / occupancy during advance steps (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.perfmodel.cost import CostModel, KernelBatch, KernelCost, KernelWorkload, PricedBatch

#: pending accesses past which a submit prices the batch on the spot, so
#: a queue whose clock nobody reads holds a bounded copy of its streams
#: (the measurement is in docs/architecture.md)
PENDING_ACCESS_CAP = 1 << 17


@dataclass
class KernelSummary:
    """Aggregated stats for all launches of one kernel name."""

    name: str
    launches: int = 0
    total_ns: float = 0.0
    total_dram_bytes: int = 0
    peak_l1_hit_rate: float = 0.0
    peak_occupancy: float = 0.0

    def add(self, cost: "KernelCost") -> None:
        self.launches += 1
        self.total_ns += cost.time_ns
        self.total_dram_bytes += cost.dram_bytes
        if cost.l1.accesses:
            self.peak_l1_hit_rate = max(self.peak_l1_hit_rate, cost.l1_hit_rate)
        self.peak_occupancy = max(self.peak_occupancy, cost.occupancy)


class ProfileLog:
    """Ordered log of every kernel cost on a queue.

    Submitting a kernel does not price it: :meth:`enqueue` adds it to a
    pending :class:`~repro.perfmodel.cost.KernelBatch`, and the whole batch
    is priced in one :meth:`~repro.perfmodel.cost.CostModel.price` pass at
    the next sync point — a read of ``costs``, ``summaries``, ``total_ns``
    or ``total_dram_bytes`` (so of ``Queue.elapsed_ns``), of a pending
    kernel's cost (:meth:`cost`), or pending accesses passing
    :data:`PENDING_ACCESS_CAP`.

    A priced batch is kept as columns.  The totals are running sums, so
    reading the modeled clock is O(1) once the batch is priced; they add
    the costs in submit order, one at a time, exactly as a left-to-right
    loop over ``costs`` would.  The :class:`KernelCost` objects are built
    only when ``costs`` (so ``summaries`` or :meth:`kernels`) or an
    event's cost is read, once each; the per-name summaries are folded in
    when read.
    """

    def __init__(self, model: "CostModel") -> None:
        self.model = model
        self._costs: List["KernelCost"] = []
        #: priced batches whose costs are not built yet, in submit order
        self._priced: List["PricedBatch"] = []
        #: kernels priced so far
        self._priced_kernels = 0
        self._summaries: Dict[str, KernelSummary] = {}
        #: costs folded into ``_summaries`` so far
        self._summarized = 0
        # int 0 until the first cost, as sum() over an empty log returns
        self._total_ns: float = 0
        self._total_dram_bytes = 0
        self._pending: Optional["KernelBatch"] = None

    def enqueue(self, workload: "KernelWorkload") -> int:
        """Add a kernel to the pending batch; returns its index in ``costs``."""
        pending = self._pending
        if pending is None:
            from repro.perfmodel.cost import KernelBatch  # deferred: import cycle

            pending = self._pending = KernelBatch(self.model)
        index = self._priced_kernels + len(pending)
        pending.add(workload)
        if pending.accesses > PENDING_ACCESS_CAP:
            self.flush()
        return index

    def flush(self) -> None:
        """Price the pending batch and add its costs to the totals."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        priced = self.model.price(pending)
        total_ns = self._total_ns
        for time_ns in priced.time_ns.tolist():
            total_ns += time_ns
        self._total_ns = total_ns
        self._total_dram_bytes += int(priced.dram_bytes.sum())
        self._priced.append(priced)
        self._priced_kernels += len(priced)

    def cost(self, index: int) -> "KernelCost":
        """The cost of the kernel :meth:`enqueue` numbered ``index``."""
        costs = self._costs
        return costs[index] if index < len(costs) else self.costs[index]

    @property
    def costs(self) -> List["KernelCost"]:
        if self._pending is not None:
            self.flush()
        if self._priced:
            for priced in self._priced:
                self._costs += priced.costs()
            self._priced = []
        return self._costs

    @property
    def summaries(self) -> Dict[str, KernelSummary]:
        costs = self.costs
        for cost in costs[self._summarized:]:
            summary = self._summaries.get(cost.name)
            if summary is None:
                summary = self._summaries[cost.name] = KernelSummary(cost.name)
            summary.add(cost)
        self._summarized = len(costs)
        return self._summaries

    @property
    def total_ns(self) -> float:
        if self._pending is not None:
            self.flush()
        return self._total_ns

    @property
    def total_dram_bytes(self) -> int:
        if self._pending is not None:
            self.flush()
        return self._total_dram_bytes

    def kernels(self, prefix: str = "") -> List["KernelCost"]:
        """All costs whose kernel name starts with ``prefix``."""
        return [c for c in self.costs if c.name.startswith(prefix)]

    def peak_l1_hit_rate(self, prefix: str = "") -> float:
        """Peak L1 hit rate across launches matching ``prefix`` (Table 5)."""
        rates = [c.l1_hit_rate for c in self.kernels(prefix) if c.l1.accesses]
        return max(rates) if rates else 0.0

    def peak_occupancy(self, prefix: str = "") -> float:
        """Peak achieved occupancy across launches matching ``prefix``."""
        occs = [c.occupancy for c in self.kernels(prefix)]
        return max(occs) if occs else 0.0

    def time_ns(self, prefix: str = "") -> float:
        return sum(c.time_ns for c in self.kernels(prefix))
