"""Single-Source Shortest Path.

:func:`sssp` is the paper's Bellman-Ford formulation (§3.4): "the advance
phase resembles the BFS, moving from one vertex to adjacent ones and
updating distance values"; a vertex re-enters the frontier whenever its
distance improved.  The paper notes it does **not** use Δ-stepping — we
provide :func:`delta_stepping` as the optional extension for comparison.

Both are expressed as execution plans (:mod:`repro.exec`): SSSP is the
canonical advance/swap/clear fixpoint; Δ-stepping shows the IR's nested
:class:`~repro.exec.LoopStep` (the light-edge fixpoint inside each
bucket) and a custom ``should_run`` guard (bucket selection).
:func:`relax_steps` is shared with the distributed SSSP plugin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exec import (
    AdvanceStep,
    ClearStep,
    ExecContext,
    HostStep,
    LoopStep,
    Plan,
    PlanExecutor,
    Step,
    SwapClearStep,
)
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig
from repro.perfmodel.cache import unique_ints


@dataclass
class SSSPResult:
    """Per-vertex distances (inf = unreachable) and iteration stats.

    ``relaxations`` counts **edges whose relaxation improved a
    distance** (duplicates included) — not the unique next-frontier
    size, which undercounts whenever several edges improve the same
    destination in one superstep.
    """

    distances: np.ndarray
    iterations: int
    relaxations: int

    def distance(self, v: int) -> float:
        return float(self.distances[v])


def _relax_functor(dist, stats=None):
    """Advance functor performing edge relaxation with an atomic-min.

    Returns the mask of edges that improved their destination — those
    destinations enter the next frontier.  ``np.minimum.at`` is the
    vectorized equivalent of the CUDA ``atomicMin`` loop: unordered, but
    every thread's improvement lands.  Each improving edge increments
    ``stats["relaxations"]`` — counted *here*, where the edges are
    visible, not from the (deduplicated) output frontier.  ``stats`` is
    optional: the distributed plugin relaxes without counting.
    """

    def functor(src, dst, eid, w):
        # float32 weights widen exactly inside the float64 add
        candidate = dist[src] + w
        improved = candidate < dist[dst]
        if stats is not None:
            stats["relaxations"] += int(np.count_nonzero(improved))
        np.minimum.at(dist, dst[improved], candidate[improved])
        return improved

    return functor


def relax_steps(dist, stats=None) -> List[Step]:
    """The Bellman-Ford relaxation advance as IR — shared verbatim by
    :func:`sssp` and the distributed SSSP plugin."""
    functor = _relax_functor(dist, stats)
    return [AdvanceStep(lambda ctx: functor)]


def sssp(
    graph,
    source: int,
    layout: str = "2lb",
    config: Optional[AdvanceConfig] = None,
    max_iterations: Optional[int] = None,
    bits: Optional[int] = None,
    fuse: bool = False,
) -> SSSPResult:
    """Bellman-Ford SSSP from ``source``.

    The graph's edge weights are used when present; unweighted graphs get
    unit weights (making this equivalent to BFS depths).  ``bits``
    overrides the bitmap word width for bitmap-family layouts; None
    defers to ``config.params`` or the device inspector.
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")

    kwargs = layout_bits_kwargs(layout, bits, config and config.params)
    in_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    out_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    dist = queue.malloc_shared((n,), np.float64, label="sssp.dist", fill=np.inf)
    dist[source] = 0.0
    in_frontier.insert(source)

    stats = {"relaxations": 0}

    def capture(ctx):
        ctx.state["relaxed_before"] = stats["relaxations"]

    def report(ctx):
        tr = ctx.queue.tracer
        if tr is not None:
            tr.inc("sssp.relaxations", stats["relaxations"] - ctx.state["relaxed_before"])

    plan = Plan(
        name="sssp",
        span_arg=source,
        iter_span="sssp.iter",
        steps=[HostStep(capture)] + relax_steps(dist, stats) + [HostStep(report), SwapClearStep()],
        # Bellman-Ford terminates after at most |V| rounds on negative-free
        # weights; the frontier usually empties far sooner.
        limit=max_iterations if max_iterations is not None else n + 1,
        tick=lambda ctx: f"sssp.iter{ctx.iteration}",
    )
    ctx = ExecContext(
        queue,
        graphs={"csr": graph},
        frontiers={"in": in_frontier, "out": out_frontier},
        config=config,
    )
    PlanExecutor(queue, fuse=fuse).run(plan, ctx)

    distances = np.asarray(dist).copy()
    queue.free(dist)
    return SSSPResult(
        distances=distances, iterations=ctx.iteration, relaxations=stats["relaxations"]
    )


def delta_stepping(
    graph,
    source: int,
    delta: Optional[float] = None,
    layout: str = "2lb",
    config: Optional[AdvanceConfig] = None,
    bits: Optional[int] = None,
    fuse: bool = False,
) -> SSSPResult:
    """Δ-stepping SSSP (Meyer & Sanders) — the optimization the paper's
    SSSP deliberately omits, provided as an extension.

    Vertices are settled in distance buckets of width ``delta``; within a
    bucket, light edges (w <= delta) are relaxed to fixpoint before heavy
    edges are expanded once.  ``delta`` defaults to max_w / avg_degree —
    the classic Meyer-Sanders heuristic.  ``bits`` overrides the bitmap
    word width for bitmap-family layouts, matching :func:`sssp`.
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    weights = (
        np.asarray(graph.weights, dtype=np.float64)
        if graph.weights is not None
        else np.ones(graph.get_edge_count(), dtype=np.float64)
    )
    if delta is None:
        avg_deg = max(1.0, graph.get_edge_count() / max(1, n))
        delta = (float(weights.max()) / avg_deg) if weights.size else 1.0
        delta = max(delta, 1e-9)

    dist = queue.malloc_shared((n,), np.float64, label="dstep.dist", fill=np.inf)
    dist[source] = 0.0
    kwargs = layout_bits_kwargs(layout, bits, config and config.params)
    frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    scratch = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)

    stats = {"relaxations": 0}
    settled = np.zeros(n, dtype=bool)
    light = _edge_class_functor(dist, delta, stats, light=True)
    heavy = _edge_class_functor(dist, delta, stats, light=False)

    def select_bucket(ctx):
        """The plan guard doubles as bucket selection: skip to the next
        non-empty bucket, settle its members, stop when none remain."""
        st = ctx.state
        while True:
            lo, hi = st["bucket_idx"] * delta, (st["bucket_idx"] + 1) * delta
            in_bucket = (~settled) & (np.asarray(dist) >= lo) & (np.asarray(dist) < hi)
            if not in_bucket.any():
                remaining = (~settled) & np.isfinite(np.asarray(dist))
                if not remaining.any():
                    return False
                st["bucket_idx"] = int(np.asarray(dist)[remaining].min() // delta)
                continue
            members = np.nonzero(in_bucket)[0]
            settled[members] = True
            st["members"], st["hi"] = members, hi
            return True

    def bucket_prologue(ctx):
        st = ctx.state
        st["relaxed_before"] = stats["relaxations"]
        # light-edge fixpoint inside the bucket: improved destinations that
        # remain inside the bucket window are reprocessed until quiescence
        frontier.clear()
        frontier.insert(st["members"])
        tr = ctx.queue.tracer
        if tr is not None:
            tr.sample_frontier(frontier)
        st["processed"] = [st["members"]]

    def light_epilogue(ctx):
        st = ctx.state
        st["advances"] += 1
        inside = scratch.active_elements()
        inside = inside[np.asarray(dist)[inside] < st["hi"]]
        settled[inside] = True
        st["processed"].append(inside)
        frontier.clear()
        frontier.insert(inside)

    def heavy_setup(ctx):
        # heavy edges of every vertex removed from this bucket, once
        frontier.clear()
        frontier.insert(unique_ints(np.concatenate(ctx.state["processed"])))
        scratch.clear()

    def heavy_epilogue(ctx):
        st = ctx.state
        st["advances"] += 1
        tr = ctx.queue.tracer
        if tr is not None:
            tr.inc("sssp.relaxations", stats["relaxations"] - st["relaxed_before"])
        st["bucket_idx"] += 1

    plan = Plan(
        name="delta_stepping",
        span_arg=source,
        iter_span="delta_stepping.bucket",
        iter_arg=lambda ctx: ctx.state["bucket_idx"],
        auto_sample=False,  # sampled from bucket_prologue, post-insert
        should_run=select_bucket,
        steps=[
            HostStep(bucket_prologue),
            LoopStep(
                body=[
                    ClearStep("scratch"),
                    AdvanceStep(lambda ctx: light, output="scratch"),
                    HostStep(light_epilogue),
                ],
                until=lambda ctx: frontier.empty(),
            ),
            HostStep(heavy_setup),
            AdvanceStep(lambda ctx: heavy, output="scratch"),
            HostStep(heavy_epilogue),
        ],
        tick=lambda ctx: f"dstep.bucket{ctx.state['bucket_idx']}",
    )
    ctx = ExecContext(
        queue,
        graphs={"csr": graph},
        frontiers={"in": frontier, "scratch": scratch},
        config=config,
        state={"bucket_idx": 0, "advances": 0},
    )
    PlanExecutor(queue, fuse=fuse).run(plan, ctx)

    distances = np.asarray(dist).copy()
    queue.free(dist)
    return SSSPResult(
        distances=distances, iterations=ctx.state["advances"], relaxations=stats["relaxations"]
    )


def _edge_class_functor(dist, delta: float, stats, light: bool):
    """Relaxation functor restricted to light (w <= Δ) or heavy edges.

    Improving edges are counted in ``stats["relaxations"]`` like
    :func:`_relax_functor` — the output frontier's unique size is not
    the number of edges relaxed.
    """

    def functor(src, dst, eid, w):
        wd = w.astype(np.float64)
        sel = (wd <= delta) if light else (wd > delta)
        candidate = dist[src] + wd
        improved = sel & (candidate < dist[dst])
        stats["relaxations"] += int(np.count_nonzero(improved))
        np.minimum.at(dist, dst[improved], candidate[improved])
        return improved

    return functor
