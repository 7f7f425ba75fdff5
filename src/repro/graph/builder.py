"""Graph construction: COO → CSR / CSC on a queue's device.

The builder buckets edges by row (or column) with one sort and one
``np.bincount``, matching the paper's claim that SYgraph needs *no
preprocessing* beyond the CSR build every framework performs at load
time (Table 1's "Pre-Processing: No").  The sort is a plain in-place
``np.sort`` of packed int64 words, each edge's bucket key above its
index (:func:`repro.graph.coo._stable_argsort`); only a graph whose key
and index need more than 63 bits together takes NumPy's stable argsort
instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.graph.coo import COOGraph, _stable_argsort
from repro.graph.csc import CSCGraph
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue


class GraphBuilder:
    """Builds device-resident CSR/CSC graphs from host COO data."""

    def __init__(self, queue: "Queue"):
        self.queue = queue

    def to_csr(self, coo: COOGraph, sort_neighbors: bool = True) -> CSRGraph:
        """Bucket edges by source into CSR.

        ``sort_neighbors`` additionally orders each adjacency list by
        destination id, which improves coalescing of neighbor loads (and
        is required by the segmented-intersection operator).
        """
        row_ptr, perm = _compress(coo.src, coo.dst, coo.n_vertices, sort_neighbors)
        col_idx = coo.dst[perm]
        weights = None if coo.weights is None else coo.weights[perm]
        return CSRGraph(self.queue, row_ptr, col_idx, weights)

    def to_csc(self, coo: COOGraph, sort_neighbors: bool = True) -> CSCGraph:
        """Bucket edges by destination into CSC."""
        col_ptr, perm = _compress(coo.dst, coo.src, coo.n_vertices, sort_neighbors)
        row_idx = coo.src[perm]
        weights = None if coo.weights is None else coo.weights[perm]
        return CSCGraph(self.queue, col_ptr, row_idx, weights)


def _compress(
    major: np.ndarray, minor: np.ndarray, n: int, sort_minor: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Return (ptr, permutation) compressing edges by the ``major`` axis."""
    major = np.asarray(major, dtype=np.int64)
    if sort_minor:
        # lexicographic (major, minor) order: the stable order of the key
        # major·n + minor, below n², packed above each edge's index for
        # one plain sort (n² and the index fit 63 bits on every dataset)
        perm = _stable_argsort(major * n + np.asarray(minor, dtype=np.int64), n * n)
    else:
        perm = _stable_argsort(major, n)
    counts = np.bincount(major, minlength=n)
    ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return ptr, perm


def from_edges(
    queue: "Queue",
    src,
    dst,
    weights=None,
    n_vertices: Optional[int] = None,
    directed: bool = True,
) -> CSRGraph:
    """One-call convenience: edge arrays → device CSR graph.

    ``directed=False`` mirrors every edge before building.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if n_vertices is None:
        n_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if src.size else 0
    coo = COOGraph(n_vertices, src, dst, weights)
    if not directed:
        coo = coo.symmetrized()
    return GraphBuilder(queue).to_csr(coo)
