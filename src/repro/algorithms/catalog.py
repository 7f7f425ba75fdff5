"""The algorithm catalog: one :class:`AlgorithmSpec` row per algorithm.

A row is everything the tree knows about one algorithm: its entry point,
the graph representations it reads, the field of its result object that
holds the per-vertex output, its pure-Python oracle, the comparator
that decides whether two outputs agree and, for bfs, sssp and cc, its
:mod:`repro.dist` entry point.  The serving registry
(:mod:`repro.service.dispatch`), the differential matrix
(:mod:`repro.checking.differential`), the BENCH ledger
(:mod:`repro.bench.ledger`) and ``python -m repro trace`` look rows up
instead of branching on names, so the serving spot-check and the matrix
share one comparator, and adding an algorithm is one row.  This is the
shape of Gunrock's problem descriptors: one descriptor per primitive,
generic enactors around it.

:class:`GraphBundle` is the one place that builds a representation
(CSR, symmetrized CSR, CSC) from a host COO graph: lazily, once per
queue, then cached.

:mod:`repro.checking` imports this module (through its differential
runner), so the rows import the oracle and :mod:`repro.dist` when they
are called, never at module level.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.bc import bc
from repro.algorithms.bfs import bfs, direction_optimizing_bfs
from repro.algorithms.cc import cc
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import delta_stepping, sssp
from repro.errors import SYgraphError
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue

#: ``(vertex, expected, actual)`` of the first disagreement; vertex -1
#: for a shape mismatch
Mismatch = Tuple[int, object, object]

#: how each representation is built from the host graph
_BUILDS: Dict[str, Callable] = {
    "csr": lambda builder, coo: builder.to_csr(coo),
    "csr_undirected": lambda builder, coo: builder.to_csr(coo.symmetrized()),
    "csc": lambda builder, coo: builder.to_csc(coo),
}


@dataclass
class GraphBundle:
    """One graph's device representations on one queue, built on first use."""

    name: str
    coo: COOGraph
    queue: "Queue"
    _graphs: Dict[str, object] = field(default_factory=dict, repr=False)

    def get(self, representation: str):
        """``csr``, ``csr_undirected`` or ``csc``, built once then cached.

        A build interrupted by an error (an injected fault, an
        out-of-memory) frees its own allocations before re-raising: they
        would otherwise stay live as if cached, since the scheduler frees
        only what a request allocates after its snapshot.  Cached
        representations are untouched, so a retry builds only what
        failed.  A cached representation costs one lookup.
        """
        graph = self._graphs.get(representation)
        if graph is None:
            memory = self.queue.memory
            before = {a.alloc_id for a in memory.live_allocations}
            try:
                # the span is a no-op on untraced queues; on traced workers
                # it attributes the one-time build cost to the graph, not
                # to whichever request happened to arrive first
                with self.queue.span(
                    "service.graph_build", self.name, attrs={"repr": representation}
                ):
                    graph = _BUILDS[representation](GraphBuilder(self.queue), self.coo)
            except SYgraphError:
                for alloc in memory.live_allocations:
                    if alloc.alloc_id not in before:
                        memory.free(alloc.array)
                raise
            self._graphs[representation] = graph
        return graph


# --------------------------------------------------------------------- #
# comparators: (got, want) of one shape -> first Mismatch or None       #
# --------------------------------------------------------------------- #
def _first(bad: np.ndarray, got: np.ndarray, want: np.ndarray) -> Optional[Mismatch]:
    if bad.size == 0:
        return None
    v = int(bad[0])
    return (v, want[v], got[v])


def exact(got: np.ndarray, want: np.ndarray) -> Optional[Mismatch]:
    """Bit-equal outputs (BFS depths)."""
    return _first(np.nonzero(got != want)[0], got, want)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel each component with its smallest member id."""
    first: Dict[int, int] = {}
    out = np.empty(labels.size, dtype=np.int64)
    for v, lab in enumerate(labels):
        out[v] = first.setdefault(int(lab), v)
    return out


def same_components(got: np.ndarray, want: np.ndarray) -> Optional[Mismatch]:
    """CC labelings agree when they group the vertices alike, whichever
    representative labels each component; reports canonical labels."""
    return exact(canonical_labels(got), canonical_labels(want))


def close_distances(got: np.ndarray, want: np.ndarray) -> Optional[Mismatch]:
    """SSSP distances: rtol 1e-9, atol 1e-12, NaN equals NaN."""
    close = np.isclose(got, want, rtol=1e-9, atol=1e-12, equal_nan=True)
    return _first(np.nonzero(~close)[0], got, want)


def close_scores(got: np.ndarray, want: np.ndarray) -> Optional[Mismatch]:
    """BC and PageRank scores: accumulation-order tolerance (rtol 1e-6,
    atol 1e-9); NaN is a mismatch."""
    return _first(np.nonzero(~np.isclose(got, want, rtol=1e-6, atol=1e-9))[0], got, want)


def result_digest(values) -> str:
    """Bit-exact digest of a result array, ``dtype:shape:blake2b-16``:
    the BENCH ledger's checked-in format, and what the serving layer
    keeps per completed request so chaos runs can compare results."""
    arr = np.ascontiguousarray(values)
    h = hashlib.blake2b(arr.tobytes(), digest_size=16)
    return f"{arr.dtype}:{arr.shape}:{h.hexdigest()}"


# --------------------------------------------------------------------- #
# the rows                                                              #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm, as every caller sees it."""

    name: str
    #: ``entry(*graphs, source, layout=, bits=, fuse=, ...)`` -> result
    #: object; it receives the representations named by ``graphs``
    entry: Callable
    graphs: Tuple[str, ...]
    #: result-object attribute holding the per-vertex output
    result_field: str
    #: ``oracle(coo, source)`` -> the expected per-vertex output
    oracle: Callable[[COOGraph, int], np.ndarray]
    compare: Callable[[np.ndarray, np.ndarray], Optional[Mismatch]]
    #: ``dist(coo, n_devices, source, **kw)`` -> repro.dist result, for
    #: the algorithms the BSP engine runs on a gang of devices
    dist: Optional[Callable] = None
    #: the differential matrix locates a layout-pair mismatch to the
    #: first superstep whose Listing-1 BFS frontiers differ
    trace_frontiers: bool = False

    def inputs(self, bundle: GraphBundle) -> tuple:
        """The representations this row reads, built on first use."""
        return tuple(bundle.get(g) for g in self.graphs)

    def run(self, bundle: GraphBundle, source: int, **kwargs):
        """Run on ``bundle``'s representations; returns the result object."""
        return self.entry(*self.inputs(bundle), source, **kwargs)

    def values(self, result) -> np.ndarray:
        return getattr(result, self.result_field)

    def mismatch(self, got, want) -> Optional[Mismatch]:
        """First disagreement of ``got`` with ``want`` under this row's
        comparator, or None."""
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            return (-1, f"shape {want.shape}", f"shape {got.shape}")
        return self.compare(got, want)


# imported when a row is called: repro.checking imports this module
def _oracle():
    from repro.checking import oracle

    return oracle


def _dist():
    from repro import dist

    return dist


def _bfs_oracle(coo: COOGraph, source: int) -> np.ndarray:
    return _oracle().oracle_bfs(coo.n_vertices, coo.src, coo.dst, source)


def _sssp_oracle(coo: COOGraph, source: int) -> np.ndarray:
    return _oracle().oracle_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, source)


#: name -> row, in the differential matrix's order
CATALOG: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            "bfs", bfs, ("csr",), "distances", _bfs_oracle, exact,
            dist=lambda coo, n, s, **kw: _dist().distributed_bfs(coo, n, s, **kw),
            trace_frontiers=True,
        ),
        AlgorithmSpec(
            "sssp", sssp, ("csr",), "distances", _sssp_oracle, close_distances,
            dist=lambda coo, n, s, **kw: _dist().distributed_sssp(coo, n, s, **kw),
        ),
        AlgorithmSpec(
            "cc", lambda g, s, **kw: cc(g, **kw), ("csr_undirected",), "labels",
            lambda coo, s: _oracle().oracle_cc(coo.n_vertices, coo.src, coo.dst),
            same_components,
            dist=lambda coo, n, s, **kw: _dist().distributed_cc(coo, n, **kw),
        ),
        AlgorithmSpec(
            "bc", lambda g, s, **kw: bc(g, sources=[s], **kw), ("csr",), "scores",
            lambda coo, s: _oracle().oracle_bc(coo.n_vertices, coo.src, coo.dst, [s]),
            close_scores,
        ),
        AlgorithmSpec(
            "pagerank", lambda g, s, **kw: pagerank(g, **kw), ("csr",), "ranks",
            lambda coo, s: _oracle().oracle_pagerank(coo.n_vertices, coo.src, coo.dst),
            close_scores,
        ),
        AlgorithmSpec(
            "dobfs", direction_optimizing_bfs, ("csr", "csc"), "distances",
            _bfs_oracle, exact,
        ),
        AlgorithmSpec(
            "delta_stepping", delta_stepping, ("csr",), "distances",
            _sssp_oracle, close_distances,
        ),
    )
}
