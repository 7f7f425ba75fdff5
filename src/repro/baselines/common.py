"""Common interface and traversal drivers for framework runners.

A :class:`FrameworkRunner` owns a private queue on the chosen device,
loads a graph (doing whatever preprocessing its framework requires,
charged to ``preprocessing_ns``), and exposes the four evaluated
algorithms.  The benchmark harness measures ``queue.elapsed_ns`` around
each call, exactly like the paper measures kernel time excluding the
host-to-device graph transfer.

The baselines' ``bfs``, ``sssp``, ``cc`` and ``bc`` are written once,
here: each builds a :class:`~repro.exec.Plan` of host steps that the
:class:`~repro.exec.PlanExecutor` runs, with outer span
``<framework>.<algorithm>`` and one ``<framework>.<algorithm>.iter``
span per iteration.  A framework supplies only the mechanisms the paper
charges it for ("Essentials of Parallel Graph Analytics": operators
under one thin loop driver):

* :meth:`~FrameworkRunner._level` — one traversal level from
  ``ctx.state["active"]``, returning the accepted vertices;
* :meth:`~FrameworkRunner._sweep` — Brandes' store-less backward step;
* the optional hooks :meth:`~FrameworkRunner._frontiers`,
  :meth:`~FrameworkRunner._jump` and :meth:`~FrameworkRunner._translate`.

Their kernels enter through ``queue.submit``, where the fault sites and
the strict-mode hooks live.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from repro.algorithms.bc import BCResult, _backward_functor
from repro.algorithms.bfs import UNSEEN, BFSResult
from repro.algorithms.cc import CCResult, _propagate_functor
from repro.algorithms.sssp import SSSPResult, _relax_functor
from repro.exec import ExecContext, HostStep, Plan, PlanExecutor
from repro.graph.coo import COOGraph
from repro.operators import advance
from repro.sycl.device import Device
from repro.sycl.queue import Queue


class FrameworkRunner(abc.ABC):
    """One framework bound to one graph on one device."""

    #: short name used in tables/figures
    name: str = "base"
    #: whether bfs/sssp/cc sample the memory timeline after each level
    #: (Tigr samples it inside every topology step instead)
    ticks_levels: bool = True

    def __init__(self, coo: COOGraph, device: Optional[Device] = None):
        # capacity_limit=0 disables OOM enforcement: paper-scale OOM is
        # *projected* (see projected_paper_bytes), not hit at our reduced
        # dataset scale.
        self.queue = Queue(device, capacity_limit=0)
        self.coo = coo
        self.preprocessing_ns: float = 0.0
        self._load(coo)

    # ------------------------------------------------------------------ #
    # the framework's mechanisms                                          #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _load(self, coo: COOGraph) -> None:
        """Build framework-internal structures; set ``preprocessing_ns``."""

    def _level(self, ctx: ExecContext, functor) -> np.ndarray:
        """Run ``functor`` over the out-edges of ``ctx.state["active"]``
        in ``ctx.graph("csr")``; return the accepted destinations, unique
        and sorted.  ``ctx.state["algorithm"]`` names the driver."""
        raise NotImplementedError

    def _sweep(self, ctx: ExecContext, ids: np.ndarray, functor) -> None:
        """Brandes' backward step over one level: a store-less advance
        from ``ids`` through the ``in`` frontier."""
        fin = ctx.frontier("in")
        fin.clear()
        fin.insert(ids)
        advance.frontier(ctx.graph("csr"), fin, None, functor).wait()

    def _frontiers(self, n: int, seeds: np.ndarray) -> Dict[str, object]:
        """Frontier slots a traversal starts from, seeded with ``seeds``
        (none by default).  bfs and sssp make them before their value
        array, cc and bc after theirs: that order is each framework's
        memory timeline."""
        return {}

    def _jump(self, labels: np.ndarray) -> None:
        """CC's label shortcut after each level (only Gunrock has one)."""

    def _translate(self, graph) -> None:
        """Post-pass after bfs, sssp and cc (only Tigr has one)."""

    # ------------------------------------------------------------------ #
    # the drivers                                                         #
    # ------------------------------------------------------------------ #
    def bfs(self, source: int) -> BFSResult:
        n = self.graph.get_vertex_count()
        seeds = np.array([source], dtype=np.int64)
        with self.queue.scope():
            frontiers = self._frontiers(n, seeds)
            dist = self.queue.malloc_shared((n,), np.int64, label=f"{self.name}.bfs.dist", fill=UNSEEN)
            dist[source] = 0

            def stamp(ctx, accepted):
                dist[accepted] = ctx.iteration + 1

            def unvisited():  # the vertices a pull level scans
                return np.nonzero(dist == UNSEEN)[0]

            ctx = self._context("bfs", self.graph, frontiers, seeds, unvisited=unvisited)
            self._traverse(ctx, lambda s, d, e, w: dist[d] == UNSEEN, n + 1, stamp, span_arg=source)
            out = np.asarray(dist).copy()
        return BFSResult(distances=out, iterations=ctx.iteration, visited=int((out != UNSEEN).sum()))

    def sssp(self, source: int) -> SSSPResult:
        n = self.graph.get_vertex_count()
        seeds = np.array([source], dtype=np.int64)
        with self.queue.scope():
            frontiers = self._frontiers(n, seeds)
            dist = self.queue.malloc_shared((n,), np.float64, label=f"{self.name}.sssp.dist", fill=np.inf)
            dist[source] = 0.0
            stats = {"relaxations": 0}
            ctx = self._context("sssp", self.graph, frontiers, seeds)
            self._traverse(ctx, _relax_functor(dist, stats), 4 * n + 1, span_arg=source)
            out = np.asarray(dist).copy()
        return SSSPResult(distances=out, iterations=ctx.iteration, relaxations=stats["relaxations"])

    def cc(self) -> CCResult:
        if not self.supports("cc"):
            raise NotImplementedError(
                f"{self.name} ships no CC implementation (paper §5.2); "
                "Table 6 leaves these cells empty"
            )
        n = self.graph_sym.get_vertex_count()
        with self.queue.scope():
            labels = self.queue.malloc_shared((n,), np.int64, label=f"{self.name}.cc.labels")
            labels[:] = seeds = np.arange(n, dtype=np.int64)
            ctx = self._context("cc", self.graph_sym, self._frontiers(n, seeds), seeds)
            self._traverse(ctx, _propagate_functor(labels), n + 1, lambda ctx, accepted: self._jump(labels))
            out = np.asarray(labels).copy()
        return CCResult(labels=out, iterations=ctx.iteration)

    def bc(self, sources: Sequence[int]) -> BCResult:
        scores = np.zeros(self.graph.get_vertex_count(), dtype=np.float64)
        total_iters = 0
        for source in sources:
            dep, iters = self._brandes(int(source))
            scores += dep
            total_iters += iters
        return BCResult(scores=scores, sources=[int(s) for s in sources], total_iterations=total_iters)

    def _brandes(self, source: int):
        """One Brandes sweep from ``source``: forward levels accumulating
        path counts, then a backward step over every level but the last,
        all iterations of one plan.  Returns (dependency, iterations)."""
        n = self.graph.get_vertex_count()
        q = self.queue
        with q.scope():
            dist = q.malloc_shared((n,), np.int64, label=f"{self.name}.bc.dist", fill=UNSEEN)
            sigma = q.malloc_shared((n,), np.float64, label=f"{self.name}.bc.sigma", fill=0)
            delta = q.malloc_shared((n,), np.float64, label=f"{self.name}.bc.delta", fill=0)
            dist[source] = 0
            sigma[source] = 1.0
            levels = [np.array([source], dtype=np.int64)]
            ctx = self._context("bc", self.graph, self._frontiers(n, levels[0]), levels[0])

            def fwd(s, d, e, w):
                tree = dist[d] == UNSEEN
                parents, reached = s[tree], d[tree]
                np.add.at(sigma, reached, sigma[parents])
                dist[reached] = dist[parents] + 1
                return tree

            back = _backward_functor(dist, sigma, delta)

            def step(ctx):
                if ctx.state["active"].size:
                    accepted = ctx.state["active"] = self._level(ctx, fwd)
                    if accepted.size:
                        levels.append(accepted)
                else:
                    self._sweep(ctx, levels[-2], back)
                    levels.pop()

            self._run(ctx, step, lambda ctx: ctx.state["active"].size > 0 or len(levels) > 1, source)
            dep = np.asarray(delta).copy()
            dep[source] = 0.0
        return dep, ctx.iteration

    def _context(self, algorithm: str, graph, frontiers, seeds: np.ndarray, **state) -> ExecContext:
        state.update(algorithm=algorithm, active=seeds)
        return ExecContext(self.queue, graphs={"csr": graph}, frontiers=frontiers, state=state)

    def _traverse(self, ctx: ExecContext, functor, limit: int, after=None, span_arg=None) -> None:
        """Levels until none is accepted or ``limit`` levels ran, each
        followed by ``after(ctx, accepted)``; then the post-pass."""

        def level(ctx):
            accepted = ctx.state["active"] = self._level(ctx, functor)
            if after is not None:
                after(ctx, accepted)

        self._run(
            ctx,
            level,
            lambda ctx: ctx.state["active"].size > 0 and ctx.iteration < limit,
            span_arg,
            ticks=self.ticks_levels,
            teardown=[HostStep(lambda ctx: self._translate(ctx.graph("csr")))],
        )

    def _run(self, ctx: ExecContext, step, should_run, span_arg, ticks=False, teardown=()) -> None:
        """Run ``step(ctx)`` once per iteration while ``should_run(ctx)``,
        as a plan on the executor."""
        name = f"{self.name}.{ctx.state['algorithm']}"
        plan = Plan(
            name=name,
            span_arg=span_arg,
            iter_span=f"{name}.iter",
            steps=[HostStep(step)],
            teardown=teardown,
            until_empty=None,
            should_run=should_run,
            tick=(lambda ctx: f"{name}.iter{ctx.iteration}") if ticks else None,
        )
        PlanExecutor(self.queue).run(plan, ctx)

    # ------------------------------------------------------------------ #
    @classmethod
    def supports(cls, algorithm: str) -> bool:
        """Whether this framework ships the algorithm (SEP-Graph has no
        CC implementation — Table 6 leaves those cells empty)."""
        return True

    @property
    def elapsed_ns(self) -> float:
        return self.queue.elapsed_ns

    def reset_timers(self) -> None:
        self.queue.reset_profile()

    @property
    def peak_bytes(self) -> int:
        return self.queue.memory.peak_bytes

    def projected_paper_bytes(self, paper_edges: float, paper_vertices: float) -> float:
        """Extrapolate this runner's resident footprint to paper scale.

        Used to reproduce Table 6's OOM entries: a framework whose
        projected footprint exceeds the device VRAM at the original
        dataset size would have OOM'd on the real hardware.
        """
        scale_e = paper_edges / max(1, self.coo.n_edges)
        scale_v = paper_vertices / max(1, self.coo.n_vertices)
        # edge-proportional structures dominate; vertex structures second
        return self.peak_bytes * (0.8 * scale_e + 0.2 * scale_v)


_REGISTRY: Dict[str, Type[FrameworkRunner]] = {}


def register_runner(cls: Type[FrameworkRunner]) -> Type[FrameworkRunner]:
    """Class decorator adding a runner to the harness registry."""
    _REGISTRY[cls.name] = cls
    return cls


def runner_names() -> List[str]:
    return sorted(_REGISTRY)


def runner_class(name: str) -> Type[FrameworkRunner]:
    """A registered framework runner's class, by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown framework {name!r}; known: {runner_names()}") from None


def make_runner(name: str, coo: COOGraph, device: Optional[Device] = None) -> FrameworkRunner:
    """Instantiate a registered framework runner by name."""
    return runner_class(name)(coo, device)
