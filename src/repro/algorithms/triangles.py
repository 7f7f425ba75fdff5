"""Triangle counting — extension algorithm built on segmented intersection.

Counts triangles in an undirected graph by orienting edges low->high id
and summing ``|N+(u) ∩ N+(v)|`` over oriented edges — the classic
intersection formulation the paper's Figure 3 operator enables.  The
intersections are computed wholesale with a sparse-matrix product
(semantically identical, vectorized), and the kernel is costed as the
edge-parallel merge it would be on the device.  That one kernel is the
whole run, so it has no iteration and no plan, only a ``triangles`` span.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.perfmodel.cost import KernelWorkload
from repro.sycl.ndrange import range_launch


def triangle_count(graph) -> int:
    """Number of triangles in the (assumed symmetric) CSR graph."""
    queue = graph.queue
    n = graph.get_vertex_count()
    if n == 0 or graph.get_edge_count() == 0:
        return 0

    with queue.span("triangles"):
        coo = graph.to_coo()
        src = coo.src.astype(np.int64)
        dst = coo.dst.astype(np.int64)
        # orient: keep only low -> high arcs (each undirected edge once)
        keep = src < dst
        s, d = src[keep], dst[keep]
        a = sp.csr_matrix((np.ones(s.size, dtype=np.int64), (s, d)), shape=(n, n))
        # triangles = sum over oriented edges (u,v) of |N+(u) ∩ N+(v)|
        #           = sum of (A @ A) elementwise-masked by A
        prod = (a @ a).multiply(a)
        count = int(prod.sum())

        # cost accounting: one lane per oriented edge, each merging two sorted
        # adjacency ranges (the Figure 3 segmented intersection)
        wl = KernelWorkload(
            name="triangles.intersect",
            geometry=range_launch(queue.device.spec, s.size),
            active_lanes=int(s.size),
            instructions_per_lane=12.0,
            serial_ops=float(a.nnz) * 2.0,
        )
        wl.add_stream(s, 4, 1, label="row_ptr.u")
        wl.add_stream(d, 4, 1, label="row_ptr.v")
        wl.add_stream(np.concatenate([s, d]), 4, 2, label="adj.merge")
        queue.submit(wl)
    return count
