"""Per-layer host-time attribution for ``--trace 1`` runs.

:class:`LayerProfiler` wraps the entry points of each layer of the
program with a timer for as long as it is active, and restores them on
exit.  A layer's *self time* is the wall time spent inside its wrapped
calls minus the time those calls spent in nested wrapped calls of any
layer, so the self times of all layers plus the unwrapped remainder add
up to the traced wall time.  The wrappers cost two clock reads per call;
compare the traced host time with the untraced end-to-end figure to see
that overhead.

Layers, outermost first:

* ``scheduler`` — ``QueryScheduler.run``: the event loop, admission,
  batching, dispatch bookkeeping, per-request allocation release;
* ``algorithms`` — ``DispatchRegistry.run``: an algorithm's entry code
  (frontier set-up, plan construction, result extraction);
* ``executor`` — ``PlanExecutor.run`` / ``run_steps``: step dispatch,
  fusion buffer, host steps;
* ``operators`` — the public advance / compute / filter functions:
  NumPy effects and kernel workload (address stream) construction;
* ``frontier`` — every frontier layout's methods and the frontier
  set-ops: scans, inserts, swaps;
* ``sycl`` — ``Queue.submit`` and the memory manager: launch
  bookkeeping, allocation accounting;
* ``perfmodel`` — ``CostModel.charge``: pricing one kernel.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

LAYERS = ("scheduler", "algorithms", "executor", "operators", "frontier", "sycl", "perfmodel")


def _public_functions(module) -> List[str]:
    return [
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


def _methods(cls) -> List[str]:
    return [
        name
        for name, fn in vars(cls).items()
        if inspect.isfunction(fn) and not (name.startswith("__") and name.endswith("__"))
    ]


def _subclasses(cls) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _boundaries() -> Dict[str, List[Tuple[object, List[str]]]]:
    """Layer -> [(class or module, attribute names to wrap)]."""
    import repro.frontier  # noqa: F401  (imports every layout)
    from repro.exec.executor import PlanExecutor
    from repro.frontier import ops as frontier_ops
    from repro.frontier.base import Frontier
    from repro.operators import advance, compute
    from repro.operators import filter as filter_op
    from repro.perfmodel.cost import CostModel
    from repro.service.dispatch import DispatchRegistry
    from repro.service.scheduler import QueryScheduler
    from repro.sycl.memory import MemoryManager
    from repro.sycl.queue import Queue

    return {
        "scheduler": [(QueryScheduler, ["run"])],
        "algorithms": [(DispatchRegistry, ["run"])],
        "executor": [(PlanExecutor, ["run", "run_steps"])],
        "operators": [(m, _public_functions(m)) for m in (advance, compute, filter_op)],
        "frontier": [(c, _methods(c)) for c in _subclasses(Frontier)]
        + [(frontier_ops, _public_functions(frontier_ops))],
        "sycl": [(Queue, ["submit"]), (MemoryManager, _methods(MemoryManager))],
        "perfmodel": [(CostModel, ["charge"])],
    }


class LayerProfiler:
    """Context manager: accumulates per-layer self time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # child-time accumulator per open wrapped call; the bottom entry
        # collects time spent outside every layer's entry points
        self._stack: List[float] = [0.0]
        self._undo: List[Callable[[], None]] = []

    def _timed(self, layer: str, fn: Callable) -> Callable:
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1

        return timed

    def _set(self, owner, name: str, value) -> None:
        old = vars(owner)[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _rebind_aliases(self, original: Callable, wrapped: Callable) -> None:
        """Point names other modules imported (``from x import f``, or a
        dispatch dict of functions) at the wrapper too."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapped
                            self._undo.append(lambda d=value, k=key: d.__setitem__(k, original))

    def __enter__(self) -> "LayerProfiler":
        for layer, targets in _boundaries().items():
            for owner, names in targets:
                for name in names:
                    original = vars(owner)[name]
                    wrapped = self._timed(layer, original)
                    self._set(owner, name, wrapped)
                    if inspect.ismodule(owner):
                        self._rebind_aliases(original, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()
