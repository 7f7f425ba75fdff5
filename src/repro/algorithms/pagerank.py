"""PageRank — extension algorithm exercising the operator API.

Not part of the paper's evaluation, but a standard framework primitive
(Gunrock/GraphBLAST both ship it) and a good stress of ``advance.vertices``
(dense iterations over all vertices, no frontier shrinkage).  Implemented
as synchronous power iteration with dangling-mass redistribution.

As a plan: a custom ``should_run`` guard (residual vs tolerance — no
frontier ever empties), a store-less ``vertices``-mode advance for the
rank scatter, and a dense compute pass for the damping apply.  Under
``fuse=True`` the scatter advance and the apply compute merge into one
modeled kernel (the Host step computing the dangling mass between them
is fusion-neutral).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exec import (
    AdvanceStep,
    ComputeStep,
    ExecContext,
    HostStep,
    Plan,
    PlanExecutor,
)
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig


@dataclass
class PageRankResult:
    """Final ranks, iteration count, and convergence residual."""

    ranks: np.ndarray
    iterations: int
    residual: float

    def top(self, k: int = 10) -> np.ndarray:
        """Vertex ids of the k highest-ranked vertices."""
        return np.argsort(self.ranks)[::-1][:k]


def pagerank(
    graph,
    damping: float = 0.85,
    tol: float = 1e-6,
    max_iterations: int = 100,
    config: Optional[AdvanceConfig] = None,
    layout: str = "bitmap",
    bits: Optional[int] = None,
    fuse: bool = False,
) -> PageRankResult:
    """Power-iteration PageRank over the device CSR graph.

    ``layout`` picks the frontier layout for the dense per-iteration
    compute pass (any of the four layouts; the iteration itself is
    frontier-shape-independent, which the differential harness exploits
    to cross-check layouts).
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    if n == 0:
        return PageRankResult(np.empty(0), 0, 0.0)

    ranks = queue.malloc_shared((n,), np.float64, label="pr.ranks", fill=1.0 / n)
    nxt = queue.malloc_shared((n,), np.float64, label="pr.next", fill=0.0)
    out_deg = graph.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1.0))

    kwargs = layout_bits_kwargs(layout, bits, config and config.params)
    all_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    all_frontier.insert(np.arange(n, dtype=np.int64))

    scatter = _scatter_functor(ranks, inv_deg, nxt)

    def zero_next(ctx):
        nxt[:] = 0.0

    def dangling_base(ctx):
        dangling_mass = float(ranks[dangling].sum())
        ctx.state["base"] = (1.0 - damping) / n + damping * dangling_mass / n

    def apply_factory(ctx):
        base = ctx.state["base"]

        def apply(ids):
            nxt[ids] = base + damping * nxt[ids]

        return apply

    def converge(ctx):
        residual = float(np.abs(np.asarray(nxt) - np.asarray(ranks)).sum())
        ctx.state["residual"] = residual
        tr = ctx.queue.tracer
        if tr is not None:
            tr.sample_frontier(all_frontier)
            tr.gauge("pagerank.residual", residual)
        ranks[:] = nxt

    plan = Plan(
        name="pagerank",
        iter_span="pagerank.iter",
        auto_sample=False,  # sampled in converge, at the original point
        should_run=lambda ctx: ctx.iteration < max_iterations
        and ctx.state["residual"] > tol,
        steps=[
            HostStep(zero_next),
            AdvanceStep(lambda ctx: scatter, mode="vertices", output=None),
            HostStep(dangling_base),
            ComputeStep(apply_factory, frontier="all"),
            HostStep(converge),
        ],
        tick=lambda ctx: f"pr.iter{ctx.iteration}",
    )
    ctx = ExecContext(
        queue,
        graphs={"csr": graph},
        frontiers={"all": all_frontier},
        config=config,
        state={"residual": np.inf},
    )
    PlanExecutor(queue, fuse=fuse).run(plan, ctx)

    result = np.asarray(ranks).copy()
    queue.free(ranks)
    queue.free(nxt)
    return PageRankResult(
        ranks=result, iterations=ctx.iteration, residual=float(ctx.state["residual"])
    )


def _scatter_functor(ranks, inv_deg, nxt):
    """Store-less all-vertex advance functor: each edge adds its source's
    rank share, ``ranks[src] * inv_deg[src]``, to ``nxt[dst]``.  The
    shares are multiplied per vertex and gathered once per edge."""

    def scatter(src, dst, eid, w):
        np.add.at(nxt, dst, (ranks * inv_deg)[src])
        return np.zeros(src.size, dtype=bool)

    return scatter
