"""Connected Components by label propagation (paper §3.4).

"The CC algorithm follows a label propagation method as outlined by
Stergiou et al., where vertices begin by distributing their labels to
neighbors.  The process stops when no label changes occur."

Each vertex starts with its own id as label; an advance from the frontier
pushes ``min(label[src], label[dst])`` updates, and only vertices whose
label changed re-enter the frontier.  A *shortcutting* pass (Stergiou's
optimization) pointer-jumps labels to their current root every iteration,
collapsing long chains — togglable to measure its effect.

As a plan: the init advance is the ``setup``, iteration 0, inside its
own ``cc.iter`` span (so a trace has one ``cc.iter`` row per counted
iteration), the shortcut is a post-tested :class:`~repro.exec.LoopStep` of
pure-compute pointer jumps preceding the propagate advance, and the
final post-convergence shortcut is the ``teardown``.  Under ``fuse=True``
the shortcut's *last* pointer-jump (the one that proves quiescence) is
folded into the propagate advance as its prologue — the hot-loop pair
GraphBLAST-style fusion targets.  :func:`propagate_steps` is shared with
the distributed CC plugin.

CC is defined on the undirected graph; callers should pass a symmetrized
CSR (``COOGraph.symmetrized()``), as the benchmark harness does.
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
    LoopStep,
    Plan,
    PlanExecutor,
    SpanStep,
    Step,
    SwapClearStep,
)
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig
from repro.perfmodel.cache import unique_ints


@dataclass
class CCResult:
    """Per-vertex component labels and iteration stats."""

    labels: np.ndarray
    iterations: int

    @property
    def n_components(self) -> int:
        return int(np.unique(self.labels).size)

    def same_component(self, u: int, v: int) -> bool:
        return bool(self.labels[u] == self.labels[v])


def propagate_steps(labels) -> List[Step]:
    """The min-label propagation advance as IR — shared verbatim by
    :func:`cc` and the distributed CC plugin."""
    functor = _propagate_functor(labels)
    return [AdvanceStep(lambda ctx: functor)]


def cc(
    graph,
    layout: str = "2lb",
    config: Optional[AdvanceConfig] = None,
    shortcutting: bool = True,
    max_iterations: Optional[int] = None,
    bits: Optional[int] = None,
    fuse: bool = False,
) -> CCResult:
    """Label-propagation connected components over an undirected CSR.

    ``bits`` overrides the bitmap word width for bitmap-family layouts;
    None defers to ``config.params`` or the device inspector.
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    labels = queue.malloc_shared((n,), np.int64, label="cc.labels")
    labels[:] = np.arange(n, dtype=np.int64)

    kwargs = layout_bits_kwargs(layout, bits, config and config.params)
    in_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    out_frontier = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)

    steps: List[Step] = []
    if shortcutting:
        steps.extend(_shortcut_steps(labels, reinsert="in"))
    steps.extend(propagate_steps(labels))
    steps.append(SwapClearStep())

    plan = Plan(
        name="cc",
        iter_span="cc.iter",
        setup=[
            # initialization advance: all vertices distribute their labels
            SpanStep(
                "cc.iter",
                [AdvanceStep(lambda ctx: _propagate_functor(labels), mode="vertices"), SwapClearStep()],
                arg=0,
            ),
        ],
        steps=steps,
        teardown=_shortcut_steps(labels, reinsert=None) if shortcutting else [],
        limit=max_iterations if max_iterations is not None else n + 1,
        start_iteration=1,  # iteration 0 is the init advance
        tick=lambda ctx: f"cc.iter{ctx.iteration}",
    )
    ctx = ExecContext(
        queue,
        graphs={"csr": graph},
        frontiers={"in": in_frontier, "out": out_frontier},
        config=config,
    )
    PlanExecutor(queue, fuse=fuse).run(plan, ctx)

    result = np.asarray(labels).copy()
    queue.free(labels)
    return CCResult(labels=result, iterations=ctx.iteration)


def _propagate_functor(labels):
    """Advance functor: push the smaller label across each edge; the
    destination re-enters the frontier iff its label shrank."""

    def functor(src, dst, eid, w):
        pushed = labels[src]
        improved = pushed < labels[dst]
        np.minimum.at(labels, dst[improved], pushed[improved])
        return improved

    return functor


def _shortcut_steps(labels, reinsert: Optional[str]) -> List[Step]:
    """Stergiou shortcutting as IR: pointer-jump every label to its root.

    ``labels[v] = labels[labels[v]]`` to fixpoint — a post-tested loop of
    pure compute kernels (no neighbor access), charged as such.

    When run mid-propagation, ``reinsert`` names the current input
    frontier: any vertex whose label shrinks here holds new information
    its neighbors have not seen, so it must re-enter the frontier or
    propagation can terminate before the label reaches every member of
    the component (the jump bypasses the advance's own re-insertion).
    The final post-convergence pass sets ``reinsert=None`` — at that
    point every edge already joins equal labels.
    """

    def jump_factory(ctx):
        st = ctx.state
        st["cc.changed"] = False
        st["cc.moved"] = [] if reinsert is not None else None

        def jump(ids):
            parent = labels[labels[ids]]
            moved = parent != labels[ids]
            if moved.any():
                st["cc.changed"] = True
                if st["cc.moved"] is not None:
                    st["cc.moved"].append(np.asarray(ids)[moved])
            labels[ids] = parent

        return jump

    def reinsert_moved(ctx):
        moved_ids = ctx.state["cc.moved"]
        if moved_ids:
            ctx.frontier(reinsert).insert(unique_ints(np.concatenate(moved_ids)))

    body: List[Step] = [ComputeStep(jump_factory, frontier=None, write_bytes=8)]
    if reinsert is not None:
        body.append(HostStep(reinsert_moved))
    return [LoopStep(body=body, until=lambda ctx: not ctx.state["cc.changed"], post=True)]


def count_components_reference(n: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Union-find component count used by tests (host reference)."""
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(np.asarray(src, np.int64), np.asarray(dst, np.int64)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
    return int(np.unique([find(i) for i in range(n)]).size)
