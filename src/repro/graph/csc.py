"""Compressed Sparse Column graph — the pull-traversal representation.

CSC indexes edges by destination: for a vertex ``v``, ``in_neighbors(v)``
are the sources of edges into ``v``.  Pull-mode advance (Beamer-style
direction optimization; SEP-Graph's pull path) iterates *unvisited*
vertices and checks whether any in-neighbor is in the frontier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.coo import COOGraph
from repro.graph.csr import expand_ranges, offset_differences, offset_ranges
from repro.types import edge_t, vertex_t, weight_t

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue


class CSCGraph:
    """Directed graph in CSC form (column-compressed by destination)."""

    def __init__(
        self,
        queue: "Queue",
        col_ptr: np.ndarray,
        row_idx: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ):
        col_ptr = np.asarray(col_ptr)
        row_idx = np.asarray(row_idx)
        if col_ptr.ndim != 1 or col_ptr.size < 1:
            raise GraphFormatError("col_ptr must be a 1-D array of size n+1")
        if col_ptr[0] != 0 or (np.diff(col_ptr) < 0).any():
            raise GraphFormatError("col_ptr must start at 0 and be non-decreasing")
        if col_ptr[-1] != row_idx.size:
            raise GraphFormatError("col_ptr[-1] must equal len(row_idx)")
        n = col_ptr.size - 1
        if row_idx.size and row_idx.max() >= n:
            raise GraphFormatError("row_idx contains out-of-range vertex ids")

        self.queue = queue
        self.col_ptr = queue.malloc_shared((n + 1,), edge_t, label="graph.col_ptr")
        self.col_ptr[:] = col_ptr
        self.row_idx = queue.malloc_shared((row_idx.size,), vertex_t, label="graph.row_idx")
        self.row_idx[:] = row_idx
        if weights is not None:
            weights = np.asarray(weights, dtype=weight_t)
            if weights.size != row_idx.size:
                raise GraphFormatError("weights length must equal edge count")
            self.weights = queue.malloc_shared((weights.size,), weight_t, label="graph.weights")
            self.weights[:] = weights
        else:
            self.weights = None

    def get_vertex_count(self) -> int:
        return int(self.col_ptr.size - 1)

    def get_edge_count(self) -> int:
        return int(self.row_idx.size)

    @property
    def n_vertices(self) -> int:
        return self.get_vertex_count()

    @property
    def n_edges(self) -> int:
        return self.get_edge_count()

    def in_degrees(self, vertices: Optional[np.ndarray] = None) -> np.ndarray:
        return offset_differences(self.col_ptr, vertices)

    def in_neighbor_ranges(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return offset_ranges(self.col_ptr, vertices)

    def in_neighbors(self, vertex: int) -> np.ndarray:
        s, e = int(self.col_ptr[vertex]), int(self.col_ptr[vertex + 1])
        return self.row_idx[s:e].astype(np.int64)

    def gather_in_neighbors(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expand all in-edges of ``vertices``; returns (src, dst, eid, w)
        where ``dst`` repeats the queried vertices."""
        return self.expand_in(vertices)[:4]

    def expand_in(self, vertices: np.ndarray) -> Tuple[np.ndarray, ...]:
        """:meth:`gather_in_neighbors`' four arrays and the in-degree of
        each of ``vertices``, from one gather of ``col_ptr``."""
        v = np.asarray(vertices, dtype=np.int64)
        edge_ids, degs = expand_ranges(self.col_ptr, v)
        total = edge_ids.size
        if total == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, np.empty(0, dtype=weight_t), degs
        dst = np.repeat(v, degs)
        src = self.row_idx[edge_ids].astype(np.int64)
        w = (
            self.weights[edge_ids]
            if self.weights is not None
            else np.ones(total, dtype=weight_t)
        )
        return src, dst, edge_ids, w, degs

    @property
    def nbytes(self) -> int:
        total = int(self.col_ptr.nbytes + self.row_idx.nbytes)
        if self.weights is not None:
            total += int(self.weights.nbytes)
        return total

    def to_coo(self) -> COOGraph:
        n = self.n_vertices
        degs = self.in_degrees()
        dst = np.repeat(np.arange(n, dtype=np.int64), degs)
        return COOGraph(
            n,
            self.row_idx.astype(np.int64),
            dst,
            None if self.weights is None else np.asarray(self.weights),
        )

    def free(self) -> None:
        self.queue.free(self.col_ptr)
        self.queue.free(self.row_idx)
        if self.weights is not None:
            self.queue.free(self.weights)
