"""Betweenness Centrality via Brandes' algorithm (paper §3.4).

"Taking advantage of Brandes' formulation, the BC implementation computes
the number of [shortest paths] through each vertex by traversing the
graph first forward, then backward, from a source vertex."

Forward phase: a BFS from the source that, per depth level, accumulates
``sigma[dst] += sigma[src]`` over tree edges (shortest-path counts).
Backward phase: walking levels in reverse, dependencies accumulate as
``delta[src] += sigma[src]/sigma[dst] * (1 + delta[dst])`` and the BC
score of every non-source vertex gains its delta.

As a plan: the forward BFS is the main fixpoint loop; the backward
level walk is the ``teardown`` — a :class:`~repro.exec.LoopStep` of
store-less advances wrapped in per-level ``bc.back`` spans.

``bc(graph, sources=...)`` accumulates over a source set (exact BC when
``sources`` is all vertices; the paper's evaluation samples 200 random
sources, which is the standard approximation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exec import (
    AdvanceStep,
    ExecContext,
    HostStep,
    LoopStep,
    Plan,
    PlanExecutor,
    SpanStep,
)
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig


@dataclass
class BCResult:
    """Accumulated centrality scores and per-source traversal stats."""

    scores: np.ndarray
    sources: List[int]
    total_iterations: int


def bc(
    graph,
    sources: Optional[Sequence[int]] = None,
    layout: str = "2lb",
    config: Optional[AdvanceConfig] = None,
    normalize: bool = False,
    bits: Optional[int] = None,
    fuse: bool = False,
) -> BCResult:
    """Brandes BC accumulated over ``sources`` (default: single source 0).

    ``normalize=True`` divides by ``(n-1)(n-2)`` (directed convention).
    ``bits`` overrides the bitmap word width for bitmap-family layouts;
    None defers to ``config.params`` or the device inspector.
    """
    n = graph.get_vertex_count()
    if sources is None:
        sources = [0]
    scores = np.zeros(n, dtype=np.float64)
    total_iters = 0
    for s in sources:
        delta, iters = _brandes_single(graph, int(s), layout, config, bits, fuse)
        scores += delta
        total_iters += iters
    if normalize and n > 2:
        scores /= (n - 1) * (n - 2)
    return BCResult(scores=scores, sources=[int(s) for s in sources], total_iterations=total_iters)


def _brandes_single(
    graph,
    source: int,
    layout: str,
    config: Optional[AdvanceConfig],
    bits: Optional[int] = None,
    fuse: bool = False,
):
    """One forward+backward Brandes sweep; returns (dependency, iters)."""
    queue = graph.queue
    n = graph.get_vertex_count()
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")

    with queue.scope():
        dist = queue.malloc_shared((n,), np.int64, label="bc.dist", fill=-1)
        sigma = queue.malloc_shared((n,), np.float64, label="bc.sigma", fill=0)
        delta = queue.malloc_shared((n,), np.float64, label="bc.delta", fill=0)
        dist[source] = 0
        sigma[source] = 1.0

        kwargs = layout_bits_kwargs(layout, bits, config and config.params)
        in_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        out_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
        in_frontier.insert(source)

        # ---- forward: level-synchronous BFS with sigma accumulation ----
        levels: List[np.ndarray] = [np.array([source], dtype=np.int64)]

        def fwd_factory(ctx):
            return _forward_functor(dist, sigma, ctx.iteration + 1)

        def rebuild_level(ctx):
            # Sigma/delta accumulation is not idempotent, so BC (unlike
            # BFS) cannot tolerate duplicate frontier entries: the vector
            # layout admits one copy per tree edge, and re-expanding a
            # vertex would double-count its paths.  Rebuild each level
            # from the active elements, sorted and distinct on every layout.
            level = out_frontier.active_elements()
            if level.size:
                levels.append(level)
            in_frontier.clear()
            in_frontier.insert(level)
            out_frontier.clear()

        # ---- backward: dependency accumulation, deepest level first ----
        # Each pass advances from the level *above* the one being settled
        # (its predecessors) with a store-less advance.
        back = _backward_functor(dist, sigma, delta)

        def back_init(ctx):
            ctx.state["li"] = len(levels) - 1
            ctx.frontiers["prev"] = make_frontier(
                queue, n, FrontierView.VERTEX, layout=layout, **kwargs
            )

        def back_prologue(ctx):
            prev = ctx.frontier("prev")
            prev.clear()
            prev.insert(levels[ctx.state["li"] - 1])
            tr = ctx.queue.tracer
            if tr is not None:
                tr.sample_frontier(prev)

        def back_epilogue(ctx):
            ctx.iteration += 1
            ctx.queue.memory.tick("bc.back")
            ctx.state["li"] -= 1

        plan = Plan(
            name="bc",
            span_arg=source,
            iter_span="bc.iter",
            steps=[AdvanceStep(fwd_factory), HostStep(rebuild_level)],
            teardown=[
                HostStep(back_init),
                LoopStep(
                    body=[
                        SpanStep(
                            "bc.back",
                            arg=lambda ctx: ctx.state["li"],
                            body=[
                                HostStep(back_prologue),
                                AdvanceStep(lambda ctx: back, input="prev", output=None),
                                HostStep(back_epilogue),
                            ],
                        )
                    ],
                    until=lambda ctx: ctx.state["li"] < 1,
                ),
            ],
        )
        ctx = ExecContext(
            queue,
            graphs={"csr": graph},
            frontiers={"in": in_frontier, "out": out_frontier},
            config=config,
        )
        PlanExecutor(queue, fuse=fuse).run(plan, ctx)

        dependency = np.asarray(delta).copy()
        dependency[source] = 0.0
    return dependency, ctx.iteration


def _forward_functor(dist, sigma, depth: int):
    """Forward advance functor at ``depth``: an edge into an unseen vertex
    or into one already on this level is a tree edge.  It adds its
    source's path count to its destination's and sets the destination's
    depth; the destinations of tree edges form the next level."""

    def fwd(src, dst, eid, w):
        reached_at = dist[dst]
        tree = (reached_at == -1) | (reached_at == depth)
        reached = dst[tree]
        np.add.at(sigma, reached, sigma[src[tree]])
        # mark depth immediately so same-level duplicates accumulate
        # sigma but are admitted to the frontier only once (bitmap)
        dist[reached] = depth
        return tree

    return fwd


def _backward_functor(dist, sigma, delta):
    """Backward advance functor: each edge (u -> v) with dist[v] ==
    dist[u] + 1 adds ``sigma[u] / sigma[v] * (1 + delta[v])`` to u's
    dependency.  It accepts no edge (a store-less advance); the edges are
    compressed to the tree before any per-vertex array is gathered."""

    def back(src, dst, eid, w):
        tree = dist[dst] == dist[src] + 1
        parents, children = src[tree], dst[tree]
        contrib = sigma[parents] / np.maximum(sigma[children], 1e-300) * (1.0 + delta[children])
        np.add.at(delta, parents, contrib)
        return np.zeros(src.size, dtype=bool)

    return back
