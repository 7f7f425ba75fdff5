"""k-core decomposition — a filter-primitive showcase.

Computes the *core number* of every vertex (the largest k such that the
vertex belongs to a subgraph where every vertex has degree >= k) by
iterated peeling: vertices whose remaining degree falls below the current
k are filtered out of the active set, their neighbors' degrees decrement,
until the graph is exhausted.  As a plan, one iteration per k: a
post-tested loop filters and, while it finds victims, runs a
``kcore.iter`` peel round.

Not part of the paper's evaluation, but a canonical frontier-framework
primitive (Gunrock ships it) built almost entirely from ``filter`` and
``compute`` — the operators the paper keeps deliberately simple.
Expects an undirected (symmetrized) CSR graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exec import (
    AdvanceStep, ExecContext, FilterStep, HostStep, IfStep, LoopStep, Plan, PlanExecutor, SpanStep,
)
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig


@dataclass
class KCoreResult:
    """Per-vertex core numbers and the degeneracy of the graph."""

    core_numbers: np.ndarray
    iterations: int

    @property
    def degeneracy(self) -> int:
        """The largest k with a nonempty k-core."""
        return int(self.core_numbers.max()) if self.core_numbers.size else 0

    def core(self, k: int) -> np.ndarray:
        """Vertex ids of the k-core."""
        return np.nonzero(self.core_numbers >= k)[0]


def k_core(
    graph,
    layout: str = "2lb",
    config: Optional[AdvanceConfig] = None,
) -> KCoreResult:
    """Peeling k-core decomposition over an undirected CSR graph."""
    queue = graph.queue
    n = graph.get_vertex_count()
    with queue.scope():
        degrees = queue.malloc_shared((n,), np.int64, label="kcore.degrees")
        degrees[:] = graph.out_degrees()
        core = queue.malloc_shared((n,), np.int64, label="kcore.core", fill=0)

        kwargs = layout_bits_kwargs(layout, None, config and config.params)
        alive = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        alive.insert(np.arange(n, dtype=np.int64))
        peel = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)

        def retire(ctx):
            victims = peel.active_elements()
            core[victims] = ctx.iteration  # peeled at k = ctx.iteration + 1
            alive.remove(victims)
            ctx.state["rounds"] += 1

        def decrement(src, dst, eid, w):
            keep = alive.contains(dst)
            np.subtract.at(degrees, dst[keep], 1)
            return np.zeros(src.size, dtype=bool)

        peel_round = SpanStep("kcore.iter", [
            HostStep(retire),
            AdvanceStep(lambda ctx: decrement, input="peel", output=None),
            HostStep(lambda ctx: queue.memory.tick(f"kcore.k{ctx.iteration + 1}")),
        ], arg=lambda ctx: ctx.state["rounds"])
        below_k = lambda ctx: (lambda ids, k=ctx.iteration + 1: degrees[ids] < k)  # noqa: E731
        plan = Plan(name="kcore", until_empty="alive", steps=[
            # peel to fixpoint at this k: repeatedly remove degree < k vertices
            LoopStep([
                FilterStep(below_k, frontier="alive", output="peel"),
                IfStep(lambda ctx: not peel.empty(), [peel_round]),
            ], until=lambda ctx: peel.empty(), post=True),
            # all remaining alive vertices have degree >= k: they are in the k-core
            HostStep(lambda ctx: core.__setitem__(alive.active_elements(), ctx.iteration + 1)),
        ])
        frontiers = {"alive": alive, "peel": peel}
        ctx = ExecContext(queue, {"csr": graph}, frontiers, config, state={"rounds": 0})
        PlanExecutor(queue).run(plan, ctx)

        result = np.asarray(core).copy()
    return KCoreResult(core_numbers=result, iterations=ctx.state["rounds"])
