"""Edge-view advance variants (paper Table 2's edge frontiers).

SYgraph frontiers come in vertex and edge views
(``frontier_view_t::vertex`` / ``::edge``); an edge frontier marks active
*edges* by id in a bitmap of size ``ceil(|E|/b)``.  Two conversions close
the loop with vertex frontiers:

* :func:`vertices_to_edges` (V2E) — traverse the out-edges of an input
  vertex frontier; the functor selects which **edges** enter the output
  edge frontier;
* :func:`edges_to_vertices` (E2V) — look up the endpoints of the active
  edges; the functor selects which **destination vertices** enter the
  output vertex frontier.

``V2E ∘ E2V`` composes to exactly the plain V2V advance, which the test
suite verifies by building BFS from the pair.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import FrontierError
from repro.frontier.base import Frontier, FrontierView
from repro.frontier.bitmap import BitmapFrontier
from repro.graph.csr import expand
from repro.operators.advance import (
    REGION_COL_IDX,
    REGION_FRONTIER_IN,
    REGION_ROW_PTR,
    REGION_USERDATA,
    DEFAULT_CONFIG,
    FUNCTOR_READ_BYTES,
    AdvanceConfig,
    _launch,
    _charge_bitmap_insert,
    charge_frontier_probe,
)
from repro.operators.functor import as_mask
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.event import Event
from repro.sycl.ndrange import range_launch


def _check_view(frontier: Frontier, view: FrontierView, what: str) -> None:
    if frontier.view is not view:
        raise FrontierError(f"{what} must be a {view.value} frontier, got {frontier.view.value}")


def vertices_to_edges(
    graph,
    in_frontier: Frontier,
    out_frontier: Frontier,
    functor,
    config: Optional[AdvanceConfig] = None,
) -> Event:
    """V2E advance: accepted out-edges of the active vertices.

    The functor receives ``(src, dst, edge_id, weight)`` and returns the
    mask of edges to activate in the output **edge** frontier.
    """
    queue = graph.queue
    config = config or DEFAULT_CONFIG
    params = config.params or queue.inspect()
    _check_view(in_frontier, FrontierView.VERTEX, "V2E input")
    _check_view(out_frontier, FrontierView.EDGE, "V2E output")

    with queue.span("advance.v2e"):
        active = in_frontier.active_elements()
        src, dst, eid, w, degrees = expand(graph, active)
        if src.size:
            mask = as_mask(functor(src, dst, eid, w), src.size, "advance")
            accepted = eid[mask]
        else:
            accepted = np.empty(0, dtype=np.int64)
        if accepted.size:
            out_frontier.insert(accepted)

        # the advance's launch, scanning every word of a vertex bitmap
        scan_words = -(-max(1, graph.get_vertex_count()) // params.bitmap_bits)
        wl = _launch(graph, "advance.v2e", params, active, degrees, scan_words, active // params.bitmap_bits)
        if eid.size:
            wl.add_stream(eid, 4, REGION_COL_IDX, label="col_idx")
            wl.add_stream(dst, FUNCTOR_READ_BYTES, REGION_USERDATA, label="functor.read")
        if accepted.size and isinstance(out_frontier, BitmapFrontier):
            _charge_bitmap_insert(wl, out_frontier, accepted, "out.edges")
        return queue.submit(wl)


def edges_to_vertices(graph, in_frontier: Frontier, out_frontier: Frontier, functor) -> Event:
    """E2V advance: destinations of the active edges, filtered by functor."""
    queue = graph.queue
    _check_view(in_frontier, FrontierView.EDGE, "E2V input")
    _check_view(out_frontier, FrontierView.VERTEX, "E2V output")

    with queue.span("advance.e2v"):
        eids = in_frontier.active_elements()
        if eids.size:
            src, dst = graph.edge_endpoints(eids)
            w = (
                graph.weights[eids]
                if graph.weights is not None
                else np.ones(eids.size, dtype=np.float32)
            )
            mask = as_mask(functor(src, dst, eids, w), eids.size, "advance")
            accepted = dst[mask]
        else:
            accepted = np.empty(0, dtype=np.int64)
        if accepted.size:
            out_frontier.insert(accepted)

        wl = KernelWorkload(
            name="advance.e2v",
            geometry=range_launch(queue.device.spec, eids.size),
            active_lanes=int(eids.size),
            instructions_per_lane=10.0,  # row_ptr binary search per edge
            serial_ops=float(eids.size) * np.log2(max(2, graph.get_vertex_count())),
        )
        if eids.size:
            wl.add_stream(eids, 4, REGION_COL_IDX, label="col_idx")
            # the edge frontier's own storage, at its actual word width
            charge_frontier_probe(wl, in_frontier, eids, REGION_FRONTIER_IN, "in.edges")
            wl.add_stream(src, 4, REGION_ROW_PTR, label="row_ptr.search")
        if accepted.size and isinstance(out_frontier, BitmapFrontier):
            _charge_bitmap_insert(wl, out_frontier, accepted, "out.bitmap")
        return queue.submit(wl)
