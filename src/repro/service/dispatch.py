"""Algorithm dispatch: registry, gang bundle, spot-check.

The scheduler never imports algorithm modules directly — it looks the
request's ``algorithm`` name up in a :class:`DispatchRegistry` mapping
names to runner callables.  The default registry serves every row of
the algorithm catalog (:data:`repro.algorithms.catalog.CATALOG`); tests
swap runners in to inject faults or wrong results without touching the
scheduler.  Gang requests (``devices > 1``) run the row's
:mod:`repro.dist` entry point instead (bfs, sssp and cc), each handed a
:class:`GangBundle` in place of a worker's graph bundle.

A :class:`~repro.algorithms.catalog.GraphBundle` caches the
device-resident representations one worker needs for one graph, built
lazily on the worker's queue and kept across requests: that cache is
what makes same-graph batching cheap (the graph transfer is paid once
per worker, not once per request).

:func:`verify_result` re-checks a completed result against the row's
oracle with the row's comparator — the serving loop's slice of the
differential matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.catalog import CATALOG, AlgorithmSpec, GraphBundle, Mismatch
from repro.errors import SYgraphError
from repro.graph.coo import COOGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.request import Request
    from repro.sycl.device import Device

#: the seven servable algorithms: the rows of the algorithm catalog
ALGORITHMS = ("bfs", "dobfs", "sssp", "delta_stepping", "cc", "bc", "pagerank")


class DispatchError(SYgraphError):
    """A request named an algorithm the registry does not serve."""


@dataclass
class GangBundle:
    """What a gang runs on in place of a :class:`GraphBundle`.

    The :mod:`repro.dist` BSP engine partitions the host graph onto its
    own per-device queues, so a gang caches nothing on its workers.  The
    run records its BSP makespan (the gang's service time) and summed
    per-device compute time (``solo_ns``) back on the bundle.
    """

    coo: COOGraph
    devices: List["Device"]
    metrics: object = None
    injector: object = None
    makespan_ns: float = 0.0
    solo_ns: float = 0.0

    def run(self, entry: Callable, request: "Request") -> np.ndarray:
        """Call one ``repro.dist`` entry point over the gang's devices."""
        res = entry(
            self.coo, len(self.devices), request.source, devices=self.devices,
            layout=request.layout, bits=request.bits,
            metrics=self.metrics, injector=self.injector,
        )
        self.makespan_ns = res.makespan_ns
        self.solo_ns = float(sum(res.device_times_ns))
        return res.values


def _runner(spec: AlgorithmSpec) -> Callable:
    """A catalog row as a registry runner: ``(bundle, request)`` -> array."""

    def run(bundle: GraphBundle, req: "Request") -> np.ndarray:
        return spec.values(spec.run(bundle, req.source, layout=req.layout, bits=req.bits))

    return run


class DispatchRegistry:
    """Name → runner mapping the scheduler executes requests through.

    A runner takes ``(bundle, request)`` and returns the per-vertex
    result array.  A request with ``devices > 1`` runs its catalog row's
    gang entry point instead, on a :class:`GangBundle`.  :meth:`register`
    replaces or extends single-device entries — the spot-check tests use
    it to serve a deliberately wrong ``bfs``.
    """

    def __init__(self, runners: Optional[Dict[str, Callable]] = None):
        self._runners: Dict[str, Callable] = dict(runners) if runners else {}

    def register(self, name: str, runner: Callable) -> None:
        self._runners[name] = runner

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._runners))

    def prepare(self, bundle: GraphBundle, request: "Request") -> None:
        """Build (and cache) the graph representations the request reads.

        Called by the scheduler before it runs the request, so lazily
        built graphs land in the worker's persistent cache, outside the
        entry point's :meth:`~repro.sycl.queue.Queue.scope` (which frees
        — and, in strict mode, poisons — what the run allocated).  Gangs
        build nothing on their workers, and an unknown algorithm builds
        nothing before :meth:`run` rejects it; a registered runner
        without a catalog row reads the CSR.  A build that fails frees
        its own allocations (:meth:`GraphBundle.get`), so a retry
        rebuilds only what failed.
        """
        if request.devices > 1 or request.algorithm not in self._runners:
            return
        spec = CATALOG.get(request.algorithm)
        for representation in spec.graphs if spec else ("csr",):
            bundle.get(representation)

    def run(self, bundle: GraphBundle, request: "Request") -> np.ndarray:
        if request.devices > 1:
            spec = CATALOG.get(request.algorithm)
            if spec is None or spec.dist is None:
                gang_capable = ", ".join(s.name for s in CATALOG.values() if s.dist)
                raise DispatchError(
                    f"algorithm {request.algorithm!r} has no gang (multi-device) "
                    f"implementation; gang-capable: {gang_capable}"
                )
            return bundle.run(spec.dist, request)
        runner = self._runners.get(request.algorithm)
        if runner is None:
            raise DispatchError(
                f"no runner for algorithm {request.algorithm!r}; "
                f"registered: {', '.join(self.names())}"
            )
        return runner(bundle, request)


def default_registry() -> DispatchRegistry:
    """Registry serving every row of the algorithm catalog."""
    return DispatchRegistry({name: _runner(spec) for name, spec in CATALOG.items()})


def verify_result(
    coo: COOGraph, algorithm: str, source: int, result: np.ndarray
) -> Optional[Mismatch]:
    """Diff a served result against the oracle, with the comparator the
    differential matrix uses for the same algorithm.

    Returns None on agreement, else ``(vertex, want, got)`` of the first
    mismatch — the serving loop turns that into a FAILED request instead
    of silently returning corrupt data.
    """
    spec = CATALOG.get(algorithm)
    if spec is None:
        raise DispatchError(f"no oracle for algorithm {algorithm!r}")
    return spec.mismatch(result, spec.oracle(coo, source))
