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

Each step type has one handler (``_HANDLERS``).  The three
kernel-bearing steps share one path: the handler opens the operator's
span and calls its workload builder (``advance.frontier_workload``,
``compute.execute_workload``, ...), which runs the functor and
characterizes the kernel but opens no span.  With ``fuse=False`` (the
default) the workload is submitted inside the span, as the operator's
own Table-2 call does, so the kernel stream, spans and modeled timeline
are those of the open-coded loops.  With ``fuse=True`` the submit is put
off until the span has closed, into a one-deep pending buffer: an
advance adopts a following compute/filter as its epilogue (BFS: advance
+ depth stamp), or a held compute as its prologue (CC: the shortcut's
final pointer-jump + propagate), and the merged kernel is submitted when
the pair closes.  Host steps and frontier bookkeeping (swap/clear) are
transparent to the buffer; set-ops and a second advance force a flush,
and every iteration boundary and the end of every
:class:`~repro.exec.plan.SpanStep` flush, so no workload outlives the
span that holds its step.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional, Sequence

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
    # step handlers                                                     #
    # ----------------------------------------------------------------- #
    def _run_steps(self, steps: Sequence[Step], ctx: ExecContext) -> None:
        for step in steps:
            handler = _HANDLERS.get(type(step))
            if handler is None:
                raise PlanError(f"unknown step type {type(step).__name__}")
            handler(self, step, ctx)

    def _advance(self, step: AdvanceStep, ctx: ExecContext) -> None:
        graph, config = ctx.graph(step.graph), ctx.config
        fin = ctx.frontier(step.input) if step.mode != "vertices" else None
        fout = ctx.frontier(step.output)
        functor = step.functor(ctx)
        if step.mode == "frontier":
            self._kernel("advance.frontier", True, advance.frontier_workload, graph, fin, fout, functor, config)
        elif step.mode == "vertices":
            self._kernel("advance.vertices", True, advance.vertices_workload, graph, fout, functor, config)
        elif step.mode == "pull":
            args = (graph, fin, fout, functor, step.candidates(ctx), config)
            self._kernel("advance.frontier.pull", True, advance.pull_workload, *args)
        else:
            raise PlanError(f"unknown advance mode {step.mode!r}")

    def _compute(self, step: ComputeStep, ctx: ExecContext) -> None:
        graph = ctx.graph(step.graph)
        functor, size = step.functor(ctx), step.write_bytes
        if step.frontier is None:
            self._kernel("compute.execute_all", False, compute.execute_all_workload, graph, functor, size)
        else:
            fin = ctx.frontier(step.frontier)
            self._kernel("compute.execute", False, compute.execute_workload, graph, fin, functor, size)

    def _filter(self, step: FilterStep, ctx: ExecContext) -> None:
        graph = ctx.graph(step.graph)
        functor = step.functor(ctx)
        fin = ctx.frontier(step.frontier)
        if step.output is None:
            self._kernel("filter.inplace", False, filter_op.inplace_workload, graph, fin, functor)
        else:
            args = (graph, fin, ctx.frontier(step.output), functor)
            self._kernel("filter.external", False, filter_op.external_workload, *args)

    def _set_op(self, step: SetOpStep, ctx: ExecContext) -> None:
        self._flush()  # set-ops submit their own kernels, in order
        if step.op not in SET_OPS:
            raise PlanError(f"unknown frontier set-op {step.op!r}")
        _SET_OP_FNS[step.op](ctx.frontier(step.a), ctx.frontier(step.b), ctx.frontier(step.out))

    def _swap_clear(self, step: SwapClearStep, ctx: ExecContext) -> None:
        a, b = ctx.frontier(step.a), ctx.frontier(step.b)
        swap(a, b)
        b.clear()

    def _clear(self, step: ClearStep, ctx: ExecContext) -> None:
        ctx.frontier(step.frontier).clear()

    def _host(self, step: HostStep, ctx: ExecContext) -> None:
        step.fn(ctx)

    def _if(self, step: IfStep, ctx: ExecContext) -> None:
        self._run_steps(step.then if step.pred(ctx) else step.orelse, ctx)

    def _loop(self, step: LoopStep, ctx: ExecContext) -> None:
        if step.post:
            self._run_steps(step.body, ctx)
        while not step.until(ctx):
            self._run_steps(step.body, ctx)

    def _span(self, step: SpanStep, ctx: ExecContext) -> None:
        arg = step.arg(ctx) if callable(step.arg) else step.arg
        with self.queue.span(step.name, arg):
            self._run_steps(step.body, ctx)
            self._flush()

    # ----------------------------------------------------------------- #
    # the kernel path                                                   #
    # ----------------------------------------------------------------- #
    def _kernel(self, span: str, is_advance: bool, build: Callable, *args) -> None:
        """Run ``build(*args)`` inside the operator's span and submit its
        workload there, or, under ``fuse``, hand it to the pending buffer
        once the span has closed."""
        queue = self.queue
        with queue.span(span):
            wl = build(*args)
            if not self.fuse:
                queue.submit(wl)
                return
        self._defer(wl, is_advance)

    def _defer(self, wl, is_advance: bool) -> None:
        """Hold ``wl`` in the pending buffer: a compute/filter folds into
        a held advance as its epilogue, an advance takes a held
        compute/filter as its prologue, and any other pair flushes the
        held kernel first (two advances never fuse)."""
        pending = self._pending
        if pending is not None:
            if pending.has_advance and not is_advance:
                pending.workload = fuse_workloads(pending.workload, wl)
                return
            if is_advance and not pending.has_advance:
                wl = fuse_workloads(wl, pending.workload, prologue=True)
            else:
                self._flush()
        self._pending = PendingKernel(wl, has_advance=is_advance)

    def _flush(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            self.queue.submit(pending.workload)


#: step type -> its handler
_HANDLERS: Dict[type, Callable] = {
    AdvanceStep: PlanExecutor._advance,
    ComputeStep: PlanExecutor._compute,
    FilterStep: PlanExecutor._filter,
    SetOpStep: PlanExecutor._set_op,
    SwapClearStep: PlanExecutor._swap_clear,
    ClearStep: PlanExecutor._clear,
    HostStep: PlanExecutor._host,
    IfStep: PlanExecutor._if,
    LoopStep: PlanExecutor._loop,
    SpanStep: PlanExecutor._span,
}
