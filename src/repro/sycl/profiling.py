"""Aggregation of simulated kernel costs.

The benchmark harness reads per-queue :class:`ProfileLog` objects to build
the paper's figures: total simulated time (Figures 7, 8, 10), and per-kernel
peak L1 hit-rate / occupancy during advance steps (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.perfmodel.cost import KernelCost


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

    The totals are running sums kept by :meth:`record`, so reading the
    modeled clock (``Queue.elapsed_ns``) is O(1).  They add the costs in
    log order, one at a time, exactly as a left-to-right loop over
    ``costs`` would.
    """

    def __init__(self) -> None:
        self.costs: List["KernelCost"] = []
        self.summaries: Dict[str, KernelSummary] = {}
        # int 0 until the first cost, as sum() over an empty log returns
        self.total_ns: float = 0
        self.total_dram_bytes = 0

    def record(self, cost: "KernelCost") -> None:
        self.costs.append(cost)
        self.total_ns += cost.time_ns
        self.total_dram_bytes += cost.dram_bytes
        summary = self.summaries.get(cost.name)
        if summary is None:
            summary = self.summaries[cost.name] = KernelSummary(cost.name)
        summary.add(cost)

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
