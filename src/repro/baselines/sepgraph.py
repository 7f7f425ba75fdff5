"""Mini-SEP-Graph: hybrid adaptive push/pull with frontier conversions.

Reimplements the SEP-Graph mechanisms the paper measures (§2.2, §5.2):

* per-iteration **path selection** between push (data-driven, vector
  frontier) and pull (topology-driven) — "this adaptability introduces a
  runtime overhead sometimes surpassing the algorithm's computational
  cost", charged as a selector kernel per iteration;
* **vector -> bitmap -> vector conversion** to remove duplicate nodes
  (Table 1's Pre/Post-Processing "Yes");
* a **mid-run memory spike** when switching to pull: an edge staging
  buffer is allocated for the pull pass and freed afterwards (the CA
  bump in Figure 9);
* moderate preprocessing (edge partitioning for its streaming loader),
  much cheaper than Tigr's UDT.

SEP-Graph ships no CC implementation (§5.2), so :meth:`supports`
returns False for it and Table 6 renders those cells empty.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import FrameworkRunner, register_runner
from repro.exec import ExecContext
from repro.frontier import FrontierView, swap
from repro.frontier.bitmap import BitmapFrontier
from repro.frontier.vector import VectorFrontier
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.operators import advance
from repro.operators.advance import (
    REGION_COL_IDX,
    REGION_FRONTIER_IN,
    REGION_FRONTIER_OUT,
    REGION_USERDATA,
)
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.ndrange import range_launch

#: edge-partitioning preprocessing throughput (edges per microsecond).
#: SEP-Graph's loader is a light single pass; the paper observes "shorter
#: preprocessing times compared to Tigr".
PARTITION_EDGES_PER_US = 8000.0
#: push->pull switch threshold: frontier edge mass / total edges
PULL_THRESHOLD = 0.05


@register_runner
class SepGraphRunner(FrameworkRunner):
    """Adaptive push/pull levels (no CC — matches the paper)."""

    name = "sep"

    def _load(self, coo: COOGraph) -> None:
        builder = GraphBuilder(self.queue)
        self.graph = builder.to_csr(coo)
        self.csc = builder.to_csc(coo)
        self.out_degs = self.graph.out_degrees()
        self.preprocessing_ns = coo.n_edges / PARTITION_EDGES_PER_US * 1_000.0

    @classmethod
    def supports(cls, algorithm: str) -> bool:
        return algorithm != "cc"

    # ------------------------------------------------------------------ #
    def _selector_kernel(self, frontier_size: int) -> None:
        """Path-selection pass: the runtime reduction over frontier stats
        that feeds SEP-Graph's push/pull decision (pure overhead)."""
        n = self.graph.get_vertex_count()
        geom = range_launch(self.queue.device.spec, n // 32)
        wl = KernelWorkload(
            name="sep.selector",
            geometry=geom,
            active_lanes=max(1, n // 32),
            instructions_per_lane=12.0,
            serial_ops=float(n) * 0.5,  # degree reduction over the frontier
        )
        wl.add_stream(np.arange(max(1, frontier_size)), 4, REGION_FRONTIER_IN, label="stats")
        self.queue.submit(wl)

    def _convert_kernels(self, k: int) -> None:
        """vector -> bitmap -> vector round trip to drop duplicates."""
        for name in ("sep.vec2bitmap", "sep.bitmap2vec"):
            geom = range_launch(self.queue.device.spec, k)
            wl = KernelWorkload(
                name=name,
                geometry=geom,
                active_lanes=k,
                instructions_per_lane=6.0,
            )
            if k:
                wl.add_stream(np.arange(k), 4, REGION_FRONTIER_IN, label="src")
                wl.add_stream(np.arange(k) // 16, 8, REGION_FRONTIER_OUT, is_write=True, label="dst")
            self.queue.submit(wl)

    def _pull_step(self, unvisited: np.ndarray, in_frontier_ids: np.ndarray, functor):
        """One pull iteration: stage edges, scan unvisited in-neighbors."""
        q = self.queue
        # staging buffer: the Figure 9 mid-run spike ("more work-items
        # fetching their next edge")
        with q.scope():
            stage = q.malloc_shared(
                (max(1, self.csc.get_edge_count() // 4),), np.int64, label="sep.pull.stage", fill=0
            )
            q.memory.tick("sep.pull.spike")
            in_bitmap = BitmapFrontier(q, self.graph.get_vertex_count(), FrontierView.VERTEX, bits=32)
            if in_frontier_ids.size:
                in_bitmap.insert(in_frontier_ids)
            src, dst, eid, w = self.csc.gather_in_neighbors(unvisited)
            if src.size:
                parent_ok = in_bitmap.contains(src)
                mask = parent_ok & functor(src, dst, eid, w)
                accepted = np.unique(dst[mask])
            else:
                accepted = np.empty(0, dtype=np.int64)
            geom = range_launch(self.queue.device.spec, unvisited.size)
            wl = KernelWorkload(
                name="sep.pull",
                geometry=geom,
                active_lanes=int(unvisited.size),
                instructions_per_lane=8.0,
                serial_ops=float(src.size) * 12.0,  # early-exit halves edge work
            )
            if eid.size:
                half = slice(None, None, 2)
                wl.add_stream(eid[half], 4, REGION_COL_IDX, label="row_idx")
                wl.add_stream(src[half] // 32, 4, REGION_FRONTIER_IN, label="bitmap.probe")
                wl.add_stream(dst[half], 8, REGION_USERDATA, label="values")
            q.submit(wl)
        q.memory.tick("sep.pull.release")
        return accepted

    # ------------------------------------------------------------------ #
    def _level(self, ctx: ExecContext, functor) -> np.ndarray:
        """The selector, then a pull level (BFS on a heavy frontier) or a
        push level with the vector -> bitmap -> vector round trip."""
        q = self.queue
        if not ctx.frontiers:
            # SEP-Graph makes its vectors as the traversal starts, after
            # the algorithm's value arrays
            n = self.graph.get_vertex_count()
            for slot in ("in", "out"):
                ctx.frontiers[slot] = VectorFrontier(q, n, FrontierView.VERTEX)
            ctx.frontier("in").insert(ctx.state["active"])
        fin, fout = ctx.frontier("in"), ctx.frontier("out")
        ids = fin.active_elements()
        self._selector_kernel(ids.size)
        # only BFS names its unvisited vertices, so only BFS pulls
        unvisited = ctx.state.get("unvisited")
        heavy = int(self.out_degs[ids].sum()) > PULL_THRESHOLD * self.graph.get_edge_count()
        if unvisited is not None and heavy:
            accepted = self._pull_step(unvisited(), ids, functor)
        else:
            advance.frontier(self.graph, fin, fout, functor).wait()
            self._convert_kernels(fout.size_with_duplicates)
            fout.deduplicate()
            accepted = fout.active_elements()
            if ctx.state["algorithm"] == "bc":
                # BC's forward sweep hands the deduplicated vector on as
                # is; BFS and SSSP rebuild it from the sorted accepted ids
                swap(fin, fout)
                fout.clear()
                return accepted
        fin.clear()
        fin.insert(accepted)
        fout.clear()
        return accepted
