"""The plan executor: one fixpoint driver for every algorithm.

:class:`PlanExecutor` interprets a :class:`~repro.exec.plan.Plan`
against a Queue.  Because every algorithm now funnels through this one
loop, the cross-cutting layers hook *here* instead of in seven places:

* **obs** — the outer/per-iteration spans, the frontier-size gauge
  sample at iteration start, and the per-iteration memory tick are all
  issued by the executor (``Queue.span`` / ``tracer.sample_frontier`` /
  ``MemoryManager.tick``), exactly where the hand-rolled loops issued
  them before the port;
* **faults / strict mode** — every kernel still enters through
  ``Queue.submit``, so the ``kernel_launch`` fault site and the
  strict-mode invariant sweep see fused and unfused streams alike;
* **checking** — the differential matrix toggles ``fuse`` per cell and
  compares results bit-for-bit.

With ``fuse=False`` (the default) each step calls the operator exactly
as the open-coded loops did — the kernel stream, spans, ticks and
modeled timeline are bit-identical to the pre-IR code.  With
``fuse=True`` the executor holds the most recent fusable workload in a
one-deep pending buffer: an advance adopts a following compute/filter
as its epilogue (BFS: advance + depth stamp), or a preceding compute as
its prologue (CC: the shortcut's final pointer-jump + propagate), and
the merged kernel is submitted when the pair closes.  Host steps and
frontier bookkeeping (swap/clear/insert) are transparent to the buffer;
set-ops and a second advance force a flush, and every iteration
boundary and the end of every :class:`~repro.exec.plan.SpanStep`
flush, so no workload outlives its span.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.exec.fusion import PendingKernel, fuse_workloads
from repro.exec.plan import (
    AdvanceStep,
    ClearStep,
    ComputeStep,
    ExecContext,
    FilterStep,
    HostStep,
    IfStep,
    LoopStep,
    Plan,
    SET_OPS,
    SetOpStep,
    SpanStep,
    Step,
    SwapClearStep,
)
from repro.frontier import swap
from repro.frontier.ops import (
    frontier_intersection,
    frontier_subtraction,
    frontier_union,
)
from repro.operators import advance, compute
from repro.operators import filter as filter_op

_SET_OP_FNS = {
    "union": frontier_union,
    "intersection": frontier_intersection,
    "subtraction": frontier_subtraction,
}


class PlanExecutor:
    """Runs plans (and bare step lists) against one queue."""

    def __init__(self, queue, fuse: bool = False):
        self.queue = queue
        self.fuse = fuse
        self._pending: Optional[PendingKernel] = None

    # ----------------------------------------------------------------- #
    # entry points                                                      #
    # ----------------------------------------------------------------- #
    def run(self, plan: Plan, ctx: ExecContext) -> ExecContext:
        """Run ``plan`` to fixpoint; returns the (mutated) context."""
        queue = self.queue
        ctx.iteration = plan.start_iteration
        outer = queue.span(plan.name, plan.span_arg) if plan.name else nullcontext()
        with outer:
            self._run_steps(plan.setup, ctx)
            self._flush()
            while self._should_run(plan, ctx):
                arg = plan.iter_arg(ctx) if plan.iter_arg is not None else ctx.iteration
                inner = queue.span(plan.iter_span, arg) if plan.iter_span else nullcontext()
                with inner:
                    if plan.auto_sample and plan.until_empty is not None:
                        tr = queue.tracer
                        if tr is not None:
                            tr.sample_frontier(ctx.frontier(plan.until_empty))
                    self._run_steps(plan.steps, ctx)
                    self._flush()
                    ctx.iteration += 1
                    if plan.tick is not None:
                        label = plan.tick(ctx)
                        if label:
                            queue.memory.tick(label)
            self._run_steps(plan.teardown, ctx)
            self._flush()
        return ctx

    def run_steps(self, steps: Sequence[Step], ctx: ExecContext) -> ExecContext:
        """One pass over ``steps``, no loop or spans — the BSP engine's
        per-superstep entry (its own superstep span wraps the call)."""
        self._run_steps(steps, ctx)
        self._flush()
        return ctx

    # ----------------------------------------------------------------- #
    # guard                                                             #
    # ----------------------------------------------------------------- #
    def _should_run(self, plan: Plan, ctx: ExecContext) -> bool:
        if plan.should_run is not None:
            return bool(plan.should_run(ctx))
        if plan.until_empty is None:
            raise PlanError(
                f"plan {plan.name!r} has neither an until_empty frontier nor should_run"
            )
        if ctx.frontier(plan.until_empty).empty():
            return False
        return plan.limit is None or ctx.iteration < plan.limit

    # ----------------------------------------------------------------- #
    # step dispatch                                                     #
    # ----------------------------------------------------------------- #
    def _run_steps(self, steps: Sequence[Step], ctx: ExecContext) -> None:
        for step in steps:
            # the two commonest steps by exact type, before the chain
            kind = type(step)
            if kind is AdvanceStep:
                self._do_advance(step, ctx)
            elif kind is HostStep:
                step.fn(ctx)
            else:
                self._run_step(step, ctx)

    def _run_step(self, step: Step, ctx: ExecContext) -> None:
        if isinstance(step, AdvanceStep):
            self._do_advance(step, ctx)
        elif isinstance(step, ComputeStep):
            self._do_compute(step, ctx)
        elif isinstance(step, FilterStep):
            self._do_filter(step, ctx)
        elif isinstance(step, SetOpStep):
            self._flush()  # set-ops submit their own kernels, in order
            if step.op not in SET_OPS:
                raise PlanError(f"unknown frontier set-op {step.op!r}")
            _SET_OP_FNS[step.op](
                ctx.frontier(step.a), ctx.frontier(step.b), ctx.frontier(step.out)
            )
        elif isinstance(step, SwapClearStep):
            a, b = ctx.frontier(step.a), ctx.frontier(step.b)
            swap(a, b)
            b.clear()
        elif isinstance(step, ClearStep):
            ctx.frontier(step.frontier).clear()
        elif isinstance(step, HostStep):
            step.fn(ctx)
        elif isinstance(step, IfStep):
            self._run_steps(step.then if step.pred(ctx) else step.orelse, ctx)
        elif isinstance(step, LoopStep):
            if step.post:
                while True:
                    self._run_steps(step.body, ctx)
                    if step.until(ctx):
                        break
            else:
                while not step.until(ctx):
                    self._run_steps(step.body, ctx)
        elif isinstance(step, SpanStep):
            arg = step.arg(ctx) if callable(step.arg) else step.arg
            with self.queue.span(step.name, arg):
                self._run_steps(step.body, ctx)
                self._flush()
        else:
            raise PlanError(f"unknown step type {type(step).__name__}")

    # ----------------------------------------------------------------- #
    # kernel-bearing steps (fusion-aware)                               #
    # ----------------------------------------------------------------- #
    def _do_advance(self, step: AdvanceStep, ctx: ExecContext) -> None:
        graph = ctx.graph(step.graph)
        fin = ctx.frontier(step.input) if step.mode != "vertices" else None
        fout = ctx.frontier(step.output)
        functor = step.functor(ctx)
        if not self.fuse:
            if step.mode == "vertices":
                advance.vertices(graph, fout, functor, ctx.config).wait()
            elif step.mode == "pull":
                advance.frontier_pull(
                    graph, fin, fout, functor, step.candidates(ctx), ctx.config
                ).wait()
            elif step.mode == "frontier":
                advance.frontier(graph, fin, fout, functor, ctx.config).wait()
            else:
                raise PlanError(f"unknown advance mode {step.mode!r}")
            return
        if step.mode == "vertices":
            wl = advance.vertices_workload(graph, fout, functor, ctx.config)
        elif step.mode == "pull":
            wl = advance.pull_workload(
                graph, fin, fout, functor, step.candidates(ctx), ctx.config
            )
        elif step.mode == "frontier":
            wl = advance.frontier_workload(graph, fin, fout, functor, ctx.config)
        else:
            raise PlanError(f"unknown advance mode {step.mode!r}")
        pending = self._pending
        if pending is not None and pending.has_advance:
            self._flush()  # two advances never fuse
            pending = None
        if pending is not None:
            # a held compute/filter becomes this advance's prologue
            # (CC: the shortcut's last pointer-jump rides the propagate)
            wl = fuse_workloads(wl, pending.workload, prologue=True)
            self._pending = None
        self._pending = PendingKernel(wl, has_advance=True)

    def _do_compute(self, step: ComputeStep, ctx: ExecContext) -> None:
        graph = ctx.graph(step.graph)
        functor = step.functor(ctx)
        if not self.fuse:
            if step.frontier is None:
                compute.execute_all(graph, functor, step.write_bytes).wait()
            else:
                compute.execute(
                    graph, ctx.frontier(step.frontier), functor, step.write_bytes
                ).wait()
            return
        if step.frontier is None:
            wl = compute.execute_all_workload(graph, functor, step.write_bytes)
        else:
            wl = compute.execute_workload(
                graph, ctx.frontier(step.frontier), functor, step.write_bytes
            )
        self._hold_epilogue(wl)

    def _do_filter(self, step: FilterStep, ctx: ExecContext) -> None:
        graph = ctx.graph(step.graph)
        functor = step.functor(ctx)
        fin = ctx.frontier(step.frontier)
        if not self.fuse:
            if step.output is None:
                filter_op.inplace(graph, fin, functor).wait()
            else:
                filter_op.external(graph, fin, ctx.frontier(step.output), functor).wait()
            return
        if step.output is None:
            wl = filter_op.inplace_workload(graph, fin, functor)
        else:
            wl = filter_op.external_workload(graph, fin, ctx.frontier(step.output), functor)
        self._hold_epilogue(wl)

    def _hold_epilogue(self, wl) -> None:
        """Fold a compute/filter workload into a pending advance, or hold
        it as a future prologue (flushing any unpaired predecessor)."""
        pending = self._pending
        if pending is not None and pending.has_advance:
            pending.workload = fuse_workloads(pending.workload, wl, prologue=False)
            return
        if pending is not None:
            self._flush()
        self._pending = PendingKernel(wl, has_advance=False)

    def _flush(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            self.queue.submit(pending.workload).wait()
