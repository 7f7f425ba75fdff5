"""Breadth-First Search.

:func:`bfs` is a line-for-line transcription of the paper's Listing 1 —
now expressed as an execution :class:`~repro.exec.Plan` (push advance
with a visited check, compute to stamp depths, swap + clear, until the
input frontier is empty) run by the shared
:class:`~repro.exec.PlanExecutor`.  The per-level step pair is built by
:func:`level_steps` and reused verbatim by :mod:`repro.dist`'s BFS
plugin, so single-device and distributed BFS execute the same IR.

:func:`direction_optimizing_bfs` adds Beamer-style push/pull switching
(the paper: "it is also possible to use both push and pull techniques as
per Beamer et al."): when the frontier's outgoing edge mass exceeds a
fraction of the unexplored edge mass, one pull step over the CSC graph
replaces the push step.

``fuse=True`` (default off) lets the executor merge each advance with
the depth-stamp compute that follows it into one modeled kernel; results
are bit-identical, only the modeled timeline changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exec import (
    AdvanceStep,
    ComputeStep,
    ExecContext,
    HostStep,
    IfStep,
    Plan,
    PlanExecutor,
    Step,
    SwapClearStep,
)
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig


@dataclass
class BFSResult:
    """Per-vertex depths (-1 = unreachable) and traversal statistics."""

    distances: np.ndarray
    iterations: int
    visited: int

    def depth(self, v: int) -> int:
        return int(self.distances[v])


#: depth sentinel: "not yet visited" (Listing 1 uses size+1; -1 reads better)
UNSEEN = -1


def level_steps(dist) -> List[Step]:
    """The BFS level kernel pair as IR: advance over unseen destinations,
    then stamp their depth (``ctx.iteration + 1``).

    Shared verbatim by :func:`bfs` and the distributed BFS plugin
    (:mod:`repro.dist.algorithms`) — the BSP engine runs these steps per
    device with ``ctx.iteration`` set to the superstep index.
    """
    return [
        AdvanceStep(lambda ctx: (lambda src, dst, eid, w: dist[dst] == UNSEEN)),
        ComputeStep(
            lambda ctx: (lambda ids, d=ctx.iteration + 1: dist.__setitem__(ids, d)),
            frontier="out",
        ),
    ]


def bfs(
    graph,
    source: int,
    layout: str = "2lb",
    config: Optional[AdvanceConfig] = None,
    max_iterations: Optional[int] = None,
    bits: Optional[int] = None,
    fuse: bool = False,
) -> BFSResult:
    """Push-based BFS from ``source`` (paper Listing 1).

    ``layout`` picks the frontier data layout (``2lb`` is the paper's
    default; ``bitmap``/``vector``/``boolmap`` enable the ablations).
    ``bits`` overrides the bitmap word width (32/64) for bitmap-family
    layouts; None defers to ``config.params`` or the device inspector.
    ``fuse`` opts into advance+compute kernel fusion (bit-identical
    results, fewer modeled kernels).
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")

    with queue.scope():
        kwargs = layout_bits_kwargs(layout, bits, config and config.params)
        in_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        out_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        dist = queue.malloc_shared((n,), np.int64, label="bfs.dist", fill=UNSEEN)
        dist[source] = 0
        in_frontier.insert(source)

        plan = Plan(
            name="bfs",
            span_arg=source,
            iter_span="bfs.iter",
            steps=level_steps(dist) + [SwapClearStep()],
            limit=max_iterations if max_iterations is not None else n + 1,
            tick=lambda ctx: f"bfs.iter{ctx.iteration}",
        )
        ctx = ExecContext(
            queue,
            graphs={"csr": graph},
            frontiers={"in": in_frontier, "out": out_frontier},
            config=config,
        )
        PlanExecutor(queue, fuse=fuse).run(plan, ctx)

        distances = np.asarray(dist).copy()
    return BFSResult(
        distances=distances,
        iterations=ctx.iteration,
        visited=int((distances != UNSEEN).sum()),
    )


def direction_optimizing_bfs(
    graph,
    csc_graph,
    source: int,
    layout: str = "2lb",
    alpha: float = 14.0,
    beta: float = 24.0,
    config: Optional[AdvanceConfig] = None,
    bits: Optional[int] = None,
    fuse: bool = False,
) -> BFSResult:
    """BFS with Beamer push/pull direction switching.

    Switches push->pull when ``m_frontier > m_unexplored / alpha`` and
    back when the frontier shrinks below ``n / beta`` (the standard
    direction-optimization heuristics).
    Requires both CSR (push) and CSC (pull) forms of the same graph.
    ``bits`` overrides the bitmap word width for bitmap-family layouts,
    with the same ``config.params`` fallback as :func:`bfs`.
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")

    with queue.scope():
        kwargs = layout_bits_kwargs(layout, bits, config and config.params)
        in_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        out_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        dist = queue.malloc_shared((n,), np.int64, label="dobfs.dist", fill=UNSEEN)
        dist[source] = 0
        in_frontier.insert(source)

        out_degs = graph.out_degrees()
        total_edges = graph.get_edge_count()

        def heuristic(ctx):
            """Beamer's direction choice + the tracer samples, before the
            advance — host work, so it lives in a HostStep (the plan keeps
            ``auto_sample`` off to preserve the original sampling point)."""
            st = ctx.state
            active = in_frontier.active_elements()
            frontier_edges = int(out_degs[active].sum())
            unexplored = max(0, total_edges - st["explored_edges"])
            growing = active.size >= st["prev_frontier_size"]
            # Beamer's heuristics: pull while the frontier is heavy AND still
            # growing; return to push once it shrinks below n/beta.
            if not st["pulling"] and growing and frontier_edges > unexplored / alpha:
                st["pulling"] = True
            elif st["pulling"] and (active.size < n / beta or not growing):
                st["pulling"] = False
            st["prev_frontier_size"] = active.size

            tr = ctx.queue.tracer
            if tr is not None:
                tr.sample_frontier(in_frontier)
                tr.gauge("dobfs.direction", 1.0 if st["pulling"] else 0.0)
                tr.inc("dobfs.pull_steps" if st["pulling"] else "dobfs.push_steps")

        visited_check = lambda ctx: (lambda src, dst, eid, w: dist[dst] == UNSEEN)  # noqa: E731

        plan = Plan(
            name="dobfs",
            span_arg=source,
            iter_span="dobfs.iter",
            auto_sample=False,  # the heuristic step samples at the original point
            steps=[
                HostStep(heuristic),
                IfStep(
                    lambda ctx: ctx.state["pulling"],
                    then=[
                        AdvanceStep(
                            visited_check,
                            mode="pull",
                            graph="csc",
                            candidates=lambda ctx: np.nonzero(np.asarray(dist) == UNSEEN)[0],
                        )
                    ],
                    orelse=[AdvanceStep(visited_check)],
                ),
                ComputeStep(
                    lambda ctx: (lambda ids, d=ctx.iteration + 1: dist.__setitem__(ids, d)),
                    frontier="out",
                ),
                HostStep(
                    lambda ctx: ctx.state.__setitem__(
                        "explored_edges",
                        ctx.state["explored_edges"]
                        + int(out_degs[out_frontier.active_elements()].sum()),
                    )
                ),
                SwapClearStep(),
            ],
            limit=n + 1,  # the original guard: iteration <= n
            tick=lambda ctx: f"dobfs.iter{ctx.iteration}",
        )
        ctx = ExecContext(
            queue,
            graphs={"csr": graph, "csc": csc_graph},
            frontiers={"in": in_frontier, "out": out_frontier},
            config=config,
            state={
                "explored_edges": int(out_degs[source]),
                "pulling": False,
                "prev_frontier_size": 1,
            },
        )
        PlanExecutor(queue, fuse=fuse).run(plan, ctx)

        distances = np.asarray(dist).copy()
    return BFSResult(
        distances=distances,
        iterations=ctx.iteration,
        visited=int((distances != UNSEEN).sum()),
    )
