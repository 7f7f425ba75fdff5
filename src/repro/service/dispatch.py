"""Algorithm dispatch: registry, per-worker graph cache, spot-check.

The scheduler never imports algorithm modules directly — it looks the
request's ``algorithm`` name up in a :class:`DispatchRegistry` mapping
names to runner callables.  The default registry covers the seven
algorithms of the differential matrix (``bfs dobfs sssp delta_stepping
cc bc pagerank``); tests swap runners in to inject faults or wrong
results without touching the scheduler.  Gang requests (``devices >
1``) go through the gang runners of :data:`GANG_RUNNERS` instead: bfs,
sssp and cc over the :mod:`repro.dist` BSP engine, each handed a
:class:`GangBundle` in place of a worker's graph bundle.

A :class:`GraphBundle` caches the device-resident representations one
worker needs for one catalog graph — CSR, symmetrized CSR (cc), CSC
(dobfs) — built lazily on the worker's queue and kept across requests:
that cache is what makes same-graph batching cheap (the graph transfer
is paid once per worker, not once per request).

:func:`verify_result` re-checks a completed result against the
pure-Python oracle of :mod:`repro.checking` — the serving loop's
differential spot-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.checking import oracle
from repro.errors import SYgraphError
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.request import Request
    from repro.sycl.device import Device
    from repro.sycl.queue import Queue

#: the seven servable algorithms (== the differential matrix's coverage)
ALGORITHMS = ("bfs", "dobfs", "sssp", "delta_stepping", "cc", "bc", "pagerank")


class DispatchError(SYgraphError):
    """A request named an algorithm the registry does not serve."""


@dataclass
class GraphBundle:
    """Per-worker cache of one catalog graph's device representations."""

    name: str
    coo: COOGraph
    queue: "Queue"
    _csr: object = field(default=None, repr=False)
    _csr_undirected: object = field(default=None, repr=False)
    _csc: object = field(default=None, repr=False)

    @property
    def csr(self):
        if self._csr is None:
            # the span is a no-op on untraced queues; on traced workers
            # it attributes the one-time build cost to the graph, not to
            # whichever request happened to arrive first
            with self.queue.span("service.graph_build", self.name, attrs={"repr": "csr"}):
                self._csr = GraphBuilder(self.queue).to_csr(self.coo)
        return self._csr

    @property
    def csr_undirected(self):
        if self._csr_undirected is None:
            with self.queue.span(
                "service.graph_build", self.name, attrs={"repr": "csr_undirected"}
            ):
                self._csr_undirected = GraphBuilder(self.queue).to_csr(self.coo.symmetrized())
        return self._csr_undirected

    @property
    def csc(self):
        if self._csc is None:
            with self.queue.span("service.graph_build", self.name, attrs={"repr": "csc"}):
                self._csc = GraphBuilder(self.queue).to_csc(self.coo)
        return self._csc


@dataclass
class GangBundle:
    """What a gang runner gets in place of a :class:`GraphBundle`.

    The :mod:`repro.dist` BSP engine partitions the host graph onto its
    own per-device queues, so a gang caches nothing on its workers.  The
    runner records the run's BSP makespan (the gang's service time) and
    summed per-device compute time (``solo_ns``) back on the bundle.
    """

    coo: COOGraph
    devices: List["Device"]
    metrics: object = None
    injector: object = None
    makespan_ns: float = 0.0
    solo_ns: float = 0.0

    def run(self, entry: Callable, request: "Request", *args) -> np.ndarray:
        """Call one ``repro.dist`` entry point over the gang's devices."""
        res = entry(
            self.coo, len(self.devices), *args, devices=self.devices,
            layout=request.layout, bits=request.bits,
            metrics=self.metrics, injector=self.injector,
        )
        self.makespan_ns = res.makespan_ns
        self.solo_ns = float(sum(res.device_times_ns))
        return res.values


# --------------------------------------------------------------------- #
# runners                                                               #
# --------------------------------------------------------------------- #
def _run_bfs(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import bfs

    return bfs(bundle.csr, req.source, layout=req.layout, bits=req.bits).distances


def _run_dobfs(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import direction_optimizing_bfs

    return direction_optimizing_bfs(
        bundle.csr, bundle.csc, req.source, layout=req.layout, bits=req.bits
    ).distances


def _run_sssp(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import sssp

    return sssp(bundle.csr, req.source, layout=req.layout, bits=req.bits).distances


def _run_delta_stepping(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import delta_stepping

    return delta_stepping(bundle.csr, req.source, layout=req.layout, bits=req.bits).distances


def _run_cc(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import cc

    return cc(bundle.csr_undirected, layout=req.layout, bits=req.bits).labels


def _run_bc(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import bc

    return bc(bundle.csr, sources=[req.source], layout=req.layout, bits=req.bits).scores


def _run_pagerank(bundle: GraphBundle, req: "Request") -> np.ndarray:
    from repro.algorithms import pagerank

    return pagerank(bundle.csr, layout=req.layout, bits=req.bits).ranks


def _run_gang_bfs(gang: GangBundle, req: "Request") -> np.ndarray:
    from repro.dist import distributed_bfs

    return gang.run(distributed_bfs, req, req.source)


def _run_gang_sssp(gang: GangBundle, req: "Request") -> np.ndarray:
    from repro.dist import distributed_sssp

    return gang.run(distributed_sssp, req, req.source)


def _run_gang_cc(gang: GangBundle, req: "Request") -> np.ndarray:
    from repro.dist import distributed_cc

    return gang.run(distributed_cc, req)


#: runners for requests with ``devices > 1``, in the order a
#: DispatchError lists them
GANG_RUNNERS: Dict[str, Callable] = {
    "bfs": _run_gang_bfs,
    "sssp": _run_gang_sssp,
    "cc": _run_gang_cc,
}


#: graph representations each algorithm reads (default: csr only); the
#: scheduler materializes these BEFORE the request's allocation window so
#: the bundle cache is never freed with the request's scratch memory
GRAPH_REQUIREMENTS: Dict[str, Tuple[str, ...]] = {
    "dobfs": ("csr", "csc"),
    "cc": ("csr_undirected",),
}


class DispatchRegistry:
    """Name → runner mapping the scheduler executes requests through.

    A runner takes ``(bundle, request)`` and returns the per-vertex
    result array.  A request with ``devices > 1`` runs through
    :data:`GANG_RUNNERS` instead, whose bundle is a :class:`GangBundle`.
    :meth:`register` replaces or extends single-device entries — the
    spot-check tests use it to serve a deliberately wrong ``bfs``.
    """

    def __init__(self, runners: Optional[Dict[str, Callable]] = None):
        self._runners: Dict[str, Callable] = dict(runners) if runners else {}

    def register(self, name: str, runner: Callable) -> None:
        self._runners[name] = runner

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._runners))

    def prepare(self, bundle: GraphBundle, request: "Request") -> None:
        """Build (and cache) the graph representations the request reads.

        Called by the scheduler before it snapshots live allocations, so
        lazily built graphs land in the worker's persistent cache rather
        than the request's scratch window (which is freed — and, in
        strict mode, poisoned — on completion).  Gangs build nothing on
        their workers, and an unknown algorithm builds nothing before
        :meth:`run` rejects it.

        A build interrupted by an injected fault frees its own scraps
        before re-raising: the half-built representation's allocations
        would otherwise masquerade as bundle cache forever (the scheduler
        only reclaims what is allocated *after* its snapshot).  Already
        cached representations are untouched, so a retry rebuilds only
        what actually failed.
        """
        if request.devices > 1 or request.algorithm not in self._runners:
            return
        mm = bundle.queue.memory
        for attr in GRAPH_REQUIREMENTS.get(request.algorithm, ("csr",)):
            before = {a.alloc_id for a in mm.live_allocations}
            try:
                getattr(bundle, attr)
            except SYgraphError:
                for alloc in [a for a in mm.live_allocations if a.alloc_id not in before]:
                    mm.free(alloc.array)
                raise

    def run(self, bundle: GraphBundle, request: "Request") -> np.ndarray:
        if request.devices > 1:
            runner = GANG_RUNNERS.get(request.algorithm)
            if runner is None:
                raise DispatchError(
                    f"algorithm {request.algorithm!r} has no gang (multi-device) "
                    f"implementation; gang-capable: {', '.join(GANG_RUNNERS)}"
                )
            return runner(bundle, request)
        runner = self._runners.get(request.algorithm)
        if runner is None:
            raise DispatchError(
                f"no runner for algorithm {request.algorithm!r}; "
                f"registered: {', '.join(self.names())}"
            )
        return runner(bundle, request)


def default_registry() -> DispatchRegistry:
    """Registry serving the seven differential-matrix algorithms."""
    return DispatchRegistry(
        {
            "bfs": _run_bfs,
            "dobfs": _run_dobfs,
            "sssp": _run_sssp,
            "delta_stepping": _run_delta_stepping,
            "cc": _run_cc,
            "bc": _run_bc,
            "pagerank": _run_pagerank,
        }
    )


# --------------------------------------------------------------------- #
# differential spot-check                                               #
# --------------------------------------------------------------------- #
def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Representative-independent CC labeling (min member id)."""
    first: Dict[int, int] = {}
    out = np.empty(labels.size, dtype=np.int64)
    for v, lab in enumerate(labels):
        rep = first.setdefault(int(lab), v)
        out[v] = rep
    return out


def _oracle_for(coo: COOGraph, algorithm: str, source: int) -> np.ndarray:
    n = coo.n_vertices
    if algorithm in ("bfs", "dobfs"):
        return oracle.oracle_bfs(n, coo.src, coo.dst, source)
    if algorithm in ("sssp", "delta_stepping"):
        return oracle.oracle_sssp(n, coo.src, coo.dst, coo.weights, source)
    if algorithm == "cc":
        # the service runs cc on the symmetrized graph, like the matrix
        return oracle.oracle_cc(n, coo.src, coo.dst)
    if algorithm == "bc":
        return oracle.oracle_bc(n, coo.src, coo.dst, [source])
    if algorithm == "pagerank":
        return oracle.oracle_pagerank(n, coo.src, coo.dst)
    raise DispatchError(f"no oracle for algorithm {algorithm!r}")


def verify_result(
    coo: COOGraph, algorithm: str, source: int, result: np.ndarray
) -> Optional[Tuple[int, object, object]]:
    """Diff a served result against the oracle.

    Returns None on agreement, else ``(vertex, want, got)`` of the first
    mismatch — the serving loop turns that into a FAILED request instead
    of silently returning corrupt data.
    """
    want = _oracle_for(coo, algorithm, source)
    got = np.asarray(result)
    if algorithm == "cc":
        got = _canonical_labels(got)
        want = _canonical_labels(want)
    if got.shape != want.shape:
        return (-1, f"shape {want.shape}", f"shape {got.shape}")
    if algorithm in ("bfs", "dobfs", "cc"):
        bad = np.nonzero(got != want)[0]
    elif algorithm in ("sssp", "delta_stepping"):
        bad = np.nonzero(~np.isclose(got, want, rtol=1e-9, atol=1e-12, equal_nan=True))[0]
    else:  # bc, pagerank: accumulation-order tolerance
        bad = np.nonzero(~np.isclose(got, want, rtol=1e-6, atol=1e-9))[0]
    if bad.size == 0:
        return None
    v = int(bad[0])
    return (v, want[v], got[v])
