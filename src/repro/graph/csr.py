"""Compressed Sparse Row graph — the push-traversal representation.

Implements the *graph manager* functions of the paper's core (Section
3.2): neighborhood retrieval, degree computation, and the vectorized
neighbor-gather the advance primitive is built on.  Buffers live in
simulated USM (``malloc_shared``) tied to the owning queue, matching the
paper's Section 3.3 allocation story.

Custom representations implement the same small interface
(:data:`GRAPH_INTERFACE_METHODS`); operators only call those methods, so a
user-defined format slots in without touching the primitives — the
flexibility Section 3.1 calls out for dynamic-graph use cases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.coo import COOGraph
from repro.types import edge_t, vertex_t, weight_t

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue

#: the methods any custom graph representation must provide for the
#: primitives to work (paper §3.1, "Graphs Representations").
GRAPH_INTERFACE_METHODS = (
    "get_vertex_count",
    "get_edge_count",
    "out_degrees",
    "neighbor_ranges",
    "gather_neighbors",
)


def offset_differences(offsets: np.ndarray, vertices: Optional[np.ndarray] = None) -> np.ndarray:
    """``offsets[v + 1] - offsets[v]`` as int64 for each of ``vertices``
    (every vertex when None): indexed first, so a lookup costs
    O(|vertices|), then widened.  Offsets never decrease, so the
    difference cannot wrap in their unsigned dtype."""
    if vertices is None:
        return np.diff(offsets).astype(np.int64)
    v = np.asarray(vertices, dtype=np.int64)
    return (offsets[v + 1] - offsets[v]).astype(np.int64)


def offset_ranges(offsets: np.ndarray, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets[v], offsets[v + 1])`` as int64 for each of ``vertices``."""
    v = np.asarray(vertices, dtype=np.int64)
    return offsets[v].astype(np.int64), offsets[v + 1].astype(np.int64)


def expand_ranges(offsets: np.ndarray, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every edge id in the ranges of ``vertices``, run after run, and each
    vertex's degree (the standard vectorized CSR expansion)."""
    v = np.asarray(vertices, dtype=np.int64)
    starts = offsets[v]
    # offsets never decrease, so the difference cannot wrap in their
    # unsigned dtype: widened once, as degrees
    degs = (offsets[v + 1] - starts).astype(np.int64)
    # an edge's id is its run's start plus its position within the run,
    # which is its position in the output less the run's first position
    first = np.cumsum(degs)
    first -= degs
    edge_ids = np.repeat(np.subtract(starts, first, dtype=np.int64), degs)
    edge_ids += np.arange(edge_ids.size, dtype=np.int64)
    return edge_ids, degs


class CSRGraph:
    """Directed graph in CSR form on a simulated device.

    Parameters
    ----------
    queue:
        Owning queue; selects the device the graph lives on.
    row_ptr, col_idx, weights:
        Standard CSR arrays.  ``weights`` may be None for unweighted
        graphs (algorithms that need weights will see 1.0).
    """

    def __init__(
        self,
        queue: "Queue",
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ):
        row_ptr = np.asarray(row_ptr)
        col_idx = np.asarray(col_idx)
        if row_ptr.ndim != 1 or row_ptr.size < 1:
            raise GraphFormatError("row_ptr must be a 1-D array of size n+1")
        if row_ptr[0] != 0 or (np.diff(row_ptr) < 0).any():
            raise GraphFormatError("row_ptr must start at 0 and be non-decreasing")
        if row_ptr[-1] != col_idx.size:
            raise GraphFormatError(
                f"row_ptr[-1]={row_ptr[-1]} must equal len(col_idx)={col_idx.size}"
            )
        n = row_ptr.size - 1
        if col_idx.size and col_idx.max() >= n:
            raise GraphFormatError("col_idx contains out-of-range vertex ids")

        self.queue = queue
        self.row_ptr = queue.malloc_shared((n + 1,), edge_t, label="graph.row_ptr")
        self.row_ptr[:] = row_ptr
        self.col_idx = queue.malloc_shared((col_idx.size,), vertex_t, label="graph.col_idx")
        self.col_idx[:] = col_idx
        if weights is not None:
            weights = np.asarray(weights, dtype=weight_t)
            if weights.size != col_idx.size:
                raise GraphFormatError("weights length must equal edge count")
            self.weights = queue.malloc_shared((weights.size,), weight_t, label="graph.weights")
            self.weights[:] = weights
        else:
            self.weights = None
        #: the all-vertex advance's sweep records of this graph, one per
        #: launch configuration (keyed by the effective TunedParameters),
        #: built on first use by :mod:`repro.operators.advance` and
        #: dropped by :meth:`free`
        self.sweeps: Dict[object, object] = {}

    # -- interface: sizes ------------------------------------------------ #
    def get_vertex_count(self) -> int:
        """Paper API: ``G.getVertexCount()``."""
        return int(self.row_ptr.size - 1)

    def get_edge_count(self) -> int:
        return int(self.col_idx.size)

    @property
    def n_vertices(self) -> int:
        return self.get_vertex_count()

    @property
    def n_edges(self) -> int:
        return self.get_edge_count()

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    # -- interface: topology --------------------------------------------- #
    def out_degrees(self, vertices: Optional[np.ndarray] = None) -> np.ndarray:
        """Out-degree of the given vertices (all vertices when None)."""
        return offset_differences(self.row_ptr, vertices)

    def neighbor_ranges(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(start, end) edge-index ranges for each vertex — the per-vertex
        regions subgroup lanes divide among themselves (Figure 4c)."""
        return offset_ranges(self.row_ptr, vertices)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Adjacency of a single vertex (the iterator interface, scalar)."""
        s, e = int(self.row_ptr[vertex]), int(self.row_ptr[vertex + 1])
        return self.col_idx[s:e].astype(np.int64)

    def gather_neighbors(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expand all out-edges of ``vertices``.

        Returns ``(src, dst, edge_id, weight)`` arrays — the four arguments
        of the paper's Advance functor — with one entry per traversed edge.
        """
        return self.expand(vertices)[:4]

    def expand(self, vertices: np.ndarray) -> Tuple[np.ndarray, ...]:
        """:meth:`gather_neighbors`' four arrays and the out-degree of
        each of ``vertices``, from one gather of ``row_ptr``."""
        v = np.asarray(vertices, dtype=np.int64)
        edge_ids, degs = expand_ranges(self.row_ptr, v)
        return (*self.gather_edges(v, edge_ids, degs), degs)

    def gather_edges(
        self, vertices: np.ndarray, edge_ids: np.ndarray, degrees
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`gather_neighbors`' four arrays for the int64 ``edge_ids``
        of ``vertices``' runs, ``degrees`` (an array or a list) of them
        each: an advance that walked its vertices' ``row_ptr`` entries
        gathers the rest here."""
        total = edge_ids.size
        if total == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, np.empty(0, dtype=weight_t)
        src = np.repeat(vertices, degrees)
        dst = self.col_idx[edge_ids].astype(np.int64)
        w = (
            self.weights[edge_ids]
            if self.weights is not None
            else np.ones(total, dtype=weight_t)
        )
        return src, dst, edge_ids, w

    def edge_endpoints(self, edge_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(src, dst) endpoints for the given edge ids.

        Sources are recovered by binary search on ``row_ptr`` — the lookup
        an edge-view frontier needs (paper Table 2's edge frontiers).
        """
        e = np.asarray(edge_ids, dtype=np.int64)
        rp = self.row_ptr.astype(np.int64)
        src = np.searchsorted(rp, e, side="right") - 1
        dst = self.col_idx[e].astype(np.int64)
        return src, dst

    # -- memory ----------------------------------------------------------- #
    @property
    def nbytes(self) -> int:
        total = int(self.row_ptr.nbytes + self.col_idx.nbytes)
        if self.weights is not None:
            total += int(self.weights.nbytes)
        return total

    # -- conversions ------------------------------------------------------ #
    def to_coo(self) -> COOGraph:
        n = self.n_vertices
        degs = self.out_degrees()
        src = np.repeat(np.arange(n, dtype=np.int64), degs)
        return COOGraph(
            n,
            src,
            self.col_idx.astype(np.int64),
            None if self.weights is None else np.asarray(self.weights),
        )

    def free(self) -> None:
        """Release device buffers back to the memory manager, and drop the
        sweep records read from them: an advance on a freed graph reads
        its (in strict mode, poisoned) buffers again."""
        self.sweeps.clear()
        self.queue.free(self.row_ptr)
        self.queue.free(self.col_idx)
        if self.weights is not None:
            self.queue.free(self.weights)


def expand(graph, vertices: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The advance's expansion of ``vertices`` on any graph
    representation: ``gather_neighbors``' four arrays and each vertex's
    out-degree.  A :class:`CSRGraph` takes the degrees from its one
    expansion; any other representation (:data:`GRAPH_INTERFACE_METHODS`:
    ``DynamicGraph``, custom formats) answers ``out_degrees`` too."""
    if isinstance(graph, CSRGraph):
        return graph.expand(vertices)
    return (*graph.gather_neighbors(vertices), graph.out_degrees(vertices))
