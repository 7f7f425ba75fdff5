"""Runtime invariant checking — the opt-in *strict mode*.

Three independent defenses, all **off by default** (benchmark runs pay a
single ``is None`` branch per kernel and nothing per allocation):

1. **frontier invariants** — every frontier constructed on a strict
   queue is registered (weakly) with the checker; after each submitted
   kernel, :meth:`~repro.frontier.base.Frontier.check_invariant` runs on
   every live frontier, so a layer-2 bit left stale by a buggy kernel is
   caught *at that kernel*, not as a corrupted result three supersteps
   later.  The same sweep replays every epoch-memoized scan
   (:meth:`~repro.frontier.base.Frontier.scan_cache_coherent`) so a
   mutation that forgot its epoch bump can never serve a stale cached
   frontier;
2. **guard canaries** — USM allocations are padded with canary words;
   out-of-range writes into tracked buffers corrupt a canary and raise
   on the next check or free;
3. **poisoned frees** — freed buffers are overwritten with NaN/extreme
   values, so use-after-free reads produce loudly wrong results instead
   of silently stale ones.

Usage::

    from repro.checking.invariants import strict_mode

    with strict_mode(queue):
        result = bfs(graph, 0)      # every kernel now self-checks
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.frontier.base import Frontier
    from repro.sycl.queue import Queue


@dataclass
class CheckStats:
    """What a checker did while enabled — test/report introspection."""

    kernels_checked: int = 0
    frontier_checks: int = 0
    frontiers_registered: int = 0
    canary_sweeps: int = 0
    cache_coherence_checks: int = 0
    kernels_by_name: List[str] = field(default_factory=list)


class InvariantChecker:
    """Validates frontier/memory invariants after every submitted kernel.

    Attach to a queue by assigning ``queue.invariant_checker`` (or use
    :func:`strict_mode`).  Frontiers register themselves at construction;
    references are weak, so the checker never extends frontier lifetimes.

    Parameters
    ----------
    check_frontiers / check_canaries:
        Toggle the per-kernel frontier sweep and the memory-canary sweep.
    every:
        Check every ``every``-th kernel (1 = every kernel).  Large
        differential sweeps with thousands of tiny kernels can dial this
        up to trade latency-to-detection for speed.
    """

    def __init__(
        self,
        check_frontiers: bool = True,
        check_canaries: bool = True,
        every: int = 1,
    ):
        self.check_frontiers = check_frontiers
        self.check_canaries = check_canaries
        self.every = max(1, int(every))
        self.stats = CheckStats()
        #: (allocation id at registration, weak reference) per frontier
        self._frontiers: List[Tuple[int, weakref.ref]] = []

    # -- registration ---------------------------------------------------- #
    def register(self, frontier: "Frontier") -> None:
        """Track a frontier (weakly) for per-kernel validation.

        A frontier registers before it allocates, so the id its queue
        hands out next is its first buffer's: :meth:`forget_since` drops
        it with the scope that owns that buffer.
        """
        self._frontiers.append((frontier.queue.memory.next_id, weakref.ref(frontier)))
        self.stats.frontiers_registered += 1

    def forget_since(self, first_id: int) -> None:
        """Stop sweeping the frontiers registered once allocation
        ``first_id`` was next: a closing :meth:`Queue.scope` frees (and,
        in strict mode, poisons) their buffers."""
        self._frontiers = [entry for entry in self._frontiers if entry[0] < first_id]

    def live_frontiers(self) -> List["Frontier"]:
        alive: List["Frontier"] = []
        live_refs: List[Tuple[int, weakref.ref]] = []
        for entry in self._frontiers:
            f = entry[1]()
            if f is not None:
                alive.append(f)
                live_refs.append(entry)
        self._frontiers = live_refs
        return alive

    # -- the hook -------------------------------------------------------- #
    def after_kernel(self, queue: "Queue", workload) -> None:
        """Called by :meth:`Queue.submit` after each kernel when attached."""
        self.stats.kernels_checked += 1
        if self.stats.kernels_checked % self.every:
            return
        name = getattr(workload, "name", "<kernel>")
        self.stats.kernels_by_name.append(name)
        if self.check_frontiers:
            for f in self.live_frontiers():
                self.stats.frontier_checks += 1
                if not f.check_invariant():
                    raise InvariantViolation(
                        f"frontier invariant violated after kernel {name!r}: "
                        f"{type(f).__name__}(n_elements={f.n_elements}) "
                        f"failed check_invariant()"
                    )
                # scan-cache coherence: a memoized view must equal a
                # fresh recomputation, or a mutation forgot its epoch
                # bump and could silently serve a stale frontier
                self.stats.cache_coherence_checks += 1
                stale = f.scan_cache_coherent()
                if stale is not None:
                    raise InvariantViolation(
                        f"stale frontier scan cache after kernel {name!r}: "
                        f"{type(f).__name__}(n_elements={f.n_elements}) "
                        f"memoized {stale!r} no longer matches a fresh "
                        f"recomputation (missing epoch bump?)"
                    )
        if self.check_canaries:
            self.stats.canary_sweeps += 1
            queue.memory.check_canaries()

    def check_now(self, queue: "Queue") -> None:
        """Run a full sweep immediately (outside any kernel)."""
        for f in self.live_frontiers():
            if not f.check_invariant():
                raise InvariantViolation(
                    f"frontier invariant violated: {type(f).__name__}"
                    f"(n_elements={f.n_elements}) failed check_invariant()"
                )
            stale = f.scan_cache_coherent()
            if stale is not None:
                raise InvariantViolation(
                    f"stale frontier scan cache: {type(f).__name__}"
                    f"(n_elements={f.n_elements}) memoized {stale!r} no "
                    f"longer matches a fresh recomputation"
                )
        queue.memory.check_canaries()


@contextmanager
def strict_mode(
    queue: "Queue",
    guard: int = 8,
    poison: bool = True,
    check_frontiers: bool = True,
    check_canaries: bool = True,
    every: int = 1,
    checker: Optional[InvariantChecker] = None,
):
    """Enable strict checking on ``queue`` for the duration of the block.

    Installs an :class:`InvariantChecker` on the queue and switches its
    memory manager to guarded allocations (+ poisoned frees).  Yields the
    checker so callers can inspect :attr:`InvariantChecker.stats`.
    Allocations made before entry are not guarded; guards added inside
    the block remain validated on free after exit.
    """
    active = checker or InvariantChecker(
        check_frontiers=check_frontiers, check_canaries=check_canaries, every=every
    )
    previous = queue.invariant_checker
    queue.invariant_checker = active
    queue.memory.enable_strict(guard=guard, poison=poison)
    try:
        yield active
    finally:
        queue.invariant_checker = previous
        queue.memory.disable_strict()
