"""The iteration IR: steps, plans, and the execution context.

A :class:`Plan` describes one algorithm's iteration structure as data —
a list of :class:`Step` descriptors the :class:`~repro.exec.executor.
PlanExecutor` runs to fixpoint against a Queue — instead of an
open-coded ``while`` loop per algorithm.  "Essentials of Parallel Graph
Analytics" frames frameworks exactly this way: a handful of composable
operators plus a thin loop driver.  The driver (executor) is then the
single place where spans, frontier gauges, memory ticks, fault sites
and strict-mode hooks attach, and the place where operator fusion
(:mod:`repro.exec.fusion`) rewrites the kernel stream without touching
any algorithm: a fused step runs the same operator call as an unfused
one, and only its submit is put off.

Steps hold *factories*, not values: an :class:`AdvanceStep`'s
``functor`` is called with the :class:`ExecContext` at every execution,
so per-iteration state (e.g. the BFS depth ``ctx.iteration + 1``) is
read at the right moment.  Frontiers and graphs are referred to by
*slot name* (``"in"``/``"out"`` by convention) so the same step list
runs unchanged against different frontier instances — the property
:mod:`repro.dist.bsp` exploits to run the single-device step lists on
every device partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: set-operation names a :class:`SetOpStep` accepts
SET_OPS = ("union", "intersection", "subtraction")


@dataclass
class ExecContext:
    """Mutable state one plan execution runs against.

    ``graphs`` and ``frontiers`` are slot-name -> instance maps (the
    conventional slots are ``csr``/``csc`` and ``in``/``out``);
    ``state`` is the algorithm's scratch dict (host counters, flags);
    ``iteration`` is owned by the executor's fixpoint loop.
    """

    queue: Any
    graphs: Dict[str, Any] = field(default_factory=dict)
    frontiers: Dict[str, Any] = field(default_factory=dict)
    config: Any = None  #: AdvanceConfig shared by the plan's advances
    iteration: int = 0
    state: Dict[str, Any] = field(default_factory=dict)

    def graph(self, slot: str):
        return self.graphs[slot]

    def frontier(self, slot: Optional[str]):
        return None if slot is None else self.frontiers[slot]


class Step:
    """Base class for IR nodes; the executor keeps one handler per
    concrete step type."""

    __slots__ = ()


@dataclass
class AdvanceStep(Step):
    """One advance launch: ``mode`` picks push (``frontier``), dense
    (``vertices``) or pull; ``functor(ctx)`` builds the edge functor."""

    functor: Callable[[ExecContext], Callable]
    input: Optional[str] = "in"
    output: Optional[str] = "out"
    mode: str = "frontier"  # "frontier" | "vertices" | "pull"
    graph: str = "csr"
    #: pull mode only: ``candidates(ctx)`` -> candidate vertex ids
    candidates: Optional[Callable[[ExecContext], Any]] = None


@dataclass
class ComputeStep(Step):
    """Apply ``functor(ctx)(ids)`` over a frontier's active elements
    (``frontier=None`` means all vertices: ``compute.execute_all``)."""

    functor: Callable[[ExecContext], Callable]
    frontier: Optional[str] = "out"
    write_bytes: int = 8
    graph: str = "csr"


@dataclass
class FilterStep(Step):
    """Drop (``output=None``, in-place) or copy-if (external) elements
    failing ``functor(ctx)``."""

    functor: Callable[[ExecContext], Callable]
    frontier: str = "in"
    output: Optional[str] = None
    graph: str = "csr"


@dataclass
class SetOpStep(Step):
    """Frontier set operation ``out = a <op> b`` (submits its kernel)."""

    op: str  # one of SET_OPS
    a: str = "in"
    b: str = "out"
    out: str = "in"


@dataclass
class SwapClearStep(Step):
    """The loop rotation: O(1) payload swap of two frontiers, then clear
    the (post-swap) output — Listing 1's ``swap + clear`` tail."""

    a: str = "in"
    b: str = "out"


@dataclass
class ClearStep(Step):
    """Clear one frontier (no kernel; host-side payload reset)."""

    frontier: str


@dataclass
class HostStep(Step):
    """Arbitrary host work: ``fn(ctx)``.  Heuristics, frontier rebuilds,
    tracer counters — anything that submits no kernel of its own."""

    fn: Callable[[ExecContext], None]


@dataclass
class IfStep(Step):
    """Host-side branch: runs ``then`` when ``pred(ctx)`` else ``orelse``
    (direction-optimization picks push vs pull here)."""

    pred: Callable[[ExecContext], bool]
    then: Sequence[Step]
    orelse: Sequence[Step] = ()


@dataclass
class LoopStep(Step):
    """Nested fixpoint inside one iteration (Δ-stepping's light-edge
    loop, CC's pointer-jump shortcut).  Pre-tested (`while not
    until(ctx)`) by default; ``post=True`` makes it do-while."""

    body: Sequence[Step]
    until: Callable[[ExecContext], bool]
    post: bool = False


@dataclass
class SpanStep(Step):
    """Named tracer span wrapping a step list (e.g. CC's init advance,
    its iteration 0, as ``cc.iter`` with ``arg=0``).  ``arg`` may be a
    value or an ``arg(ctx)`` callable."""

    name: str
    body: Sequence[Step]
    arg: Any = None


@dataclass
class Plan:
    """One algorithm's iteration structure.

    The executor runs ``setup`` once, then repeats ``steps`` while the
    guard holds (default: the ``until_empty`` frontier is non-empty and
    ``iteration < limit``; ``should_run`` overrides the guard entirely),
    then runs ``teardown`` once.  ``name`` opens the outer span,
    ``iter_span`` the per-iteration span; ``tick(ctx)`` names the
    memory-manager tick issued after each iteration (None = no tick);
    ``auto_sample`` samples the ``until_empty`` frontier on the tracer
    at iteration start (algorithms with bespoke sampling points set it
    False and sample from a :class:`HostStep`).
    """

    name: Optional[str]
    steps: Sequence[Step]
    setup: Sequence[Step] = ()
    teardown: Sequence[Step] = ()
    span_arg: Any = None
    iter_span: Optional[str] = None
    iter_arg: Optional[Callable[[ExecContext], Any]] = None
    until_empty: Optional[str] = "in"
    limit: Optional[int] = None
    should_run: Optional[Callable[[ExecContext], bool]] = None
    tick: Optional[Callable[[ExecContext], Optional[str]]] = None
    auto_sample: bool = True
    start_iteration: int = 0
