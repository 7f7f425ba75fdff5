"""Mini-Tigr: UDT-transformed, topology-driven traversal.

Reimplements the Tigr mechanisms the paper measures (§2.2, §5.2):

* **UDT preprocessing**: every vertex with out-degree above ``K`` is
  split into virtual nodes of at most ``K`` edges each ("Uniform-Degree
  Tree transformation").  Charged to ``preprocessing_ns`` — Tigr's WPP
  speedup columns in Table 6 are dominated by this cost (>99x entries);
* **no frontier model**: Tigr "directly travers[es] the graph, avoiding
  the typical frontier model" — every iteration launches over *all*
  virtual nodes and checks an active flag, so sparse iterations (road
  graphs, BFS tails) waste nearly the whole launch;
* **heavy resident structures**: original CSR + virtual CSR + virtual->
  real maps + per-virtual state, double-buffered — the outsized memory
  footprints of Figure 9 (14 GB on roadNet-CA vs SYgraph's 280 MB).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import FrameworkRunner, register_runner
from repro.exec import ExecContext
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.operators.advance import (
    REGION_COL_IDX,
    REGION_ROW_PTR,
    REGION_USERDATA,
)
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.ndrange import range_launch

#: UDT degree bound (Tigr's default splits to warp-sized chunks)
UDT_K = 32
#: host-side transform throughput, edges per microsecond, used to charge
#: preprocessing time (CPU single-thread restructure + re-upload)
UDT_EDGES_PER_US = 50.0


@register_runner
class TigrRunner(FrameworkRunner):
    """UDT-transformed topology-driven levels."""

    name = "tigr"
    ticks_levels = False

    def _load(self, coo: COOGraph) -> None:
        builder = GraphBuilder(self.queue)
        self.graph = builder.to_csr(coo)
        self.graph_sym = builder.to_csr(coo.symmetrized())
        self._n_virtual = {}  # virtual-node count of each graph's UDT form
        for graph, tag in ((self.graph, "fwd"), (self.graph_sym, "sym")):
            self._n_virtual[graph] = self._udt(graph, tag)
        # preprocessing: host-side transformation + re-upload of both forms
        total_edges = coo.n_edges * 3  # fwd + symmetrized (2x edges)
        self.preprocessing_ns = total_edges / UDT_EDGES_PER_US * 1_000.0

    def _udt(self, graph, tag: str) -> int:
        """Build the virtual-node structure for one CSR graph; returns
        its virtual-node count."""
        q = self.queue
        degs = graph.out_degrees()
        n = graph.get_vertex_count()
        # virtual nodes: ceil(deg / K) per vertex, at least 1
        vcounts = np.maximum(1, -(-degs // UDT_K))
        n_virtual = int(vcounts.sum())
        v2r = np.repeat(np.arange(n, dtype=np.int64), vcounts)
        first = np.concatenate(([0], np.cumsum(vcounts)[:-1]))
        chunk = np.arange(n_virtual, dtype=np.int64) - np.repeat(first, vcounts)
        rp = graph.row_ptr.astype(np.int64)
        vstart = rp[v2r] + chunk * UDT_K
        vend = np.minimum(rp[v2r + 1], vstart + UDT_K)

        # resident structures (Figure 9's footprint): virtual row ranges,
        # maps, per-virtual state (flags/labels), double-buffered, plus the
        # transformation workspace Tigr keeps pinned
        for name, values in (("vstart", vstart), ("vend", vend), ("v2r", v2r)):
            q.malloc_shared((n_virtual,), np.int64, label=f"tigr.{tag}.{name}")[:] = values
        for name in ("flags_a", "flags_b"):
            q.malloc_shared((n_virtual,), np.uint8, label=f"tigr.{tag}.{name}", fill=0)
        m = graph.get_edge_count()
        q.malloc_shared((max(1, m * 2),), np.int64, label=f"tigr.{tag}.workspace", fill=0)
        return n_virtual

    # ------------------------------------------------------------------ #
    def _level(self, ctx: ExecContext, functor) -> np.ndarray:
        return self._step(ctx.graph("csr"), ctx.state["active"], functor)

    def _sweep(self, ctx: ExecContext, ids: np.ndarray, functor) -> None:
        self._step(ctx.graph("csr"), ids, functor)

    def _step(self, graph, active_real: np.ndarray, functor) -> np.ndarray:
        """One topology-driven iteration over ALL virtual nodes.

        Executes the edge work of the active vertices and charges a launch
        covering the entire virtual-node array (Tigr has no frontier to
        shrink the launch).
        Returns the accepted destination vertices.
        """
        q = self.queue
        n_virtual = self._n_virtual[graph]

        src, dst, eid, w = graph.gather_neighbors(active_real)
        if src.size:
            mask = functor(src, dst, eid, w)
            accepted = np.unique(dst[mask])
        else:
            accepted = np.empty(0, dtype=np.int64)

        geom = range_launch(self.queue.device.spec, n_virtual)
        # UDT keeps per-virtual work uniform (<= K edges), so intra-launch
        # imbalance is tiny — but every virtual node is scanned each step.
        wl = KernelWorkload(
            name="tigr.step",
            geometry=geom,
            active_lanes=int(min(geom.total_lanes, src.size + active_real.size)),
            instructions_per_lane=6.0,
            serial_ops=float(src.size) * 19.0,  # hardwired kernels: ~0.8x the generic per-edge cost
        )
        # topology-driven: every virtual node loads its statically assigned
        # (vstart, vend, real-id) triple and checks the active flag — this
        # full-array sweep every iteration is Tigr's road-graph tax
        allv = np.arange(n_virtual)
        wl.add_stream(allv, 1, REGION_USERDATA, label="virt.flags")
        wl.add_stream(allv, 8, REGION_ROW_PTR, label="virt.vstart")
        wl.add_stream(allv, 8, REGION_ROW_PTR + 100, label="virt.vend")
        if eid.size:
            wl.add_stream(eid, 4, REGION_COL_IDX, label="col_idx")
            wl.add_stream(dst, 8, REGION_USERDATA + 100, label="values")
        q.submit(wl)
        q.memory.tick("tigr.step")
        return accepted

    def _translate(self, graph) -> None:
        """Post-processing: map per-virtual-node values back to real
        vertices (Table 1's Post-Processing "Yes" for Tigr)."""
        q = self.queue
        n_virtual = self._n_virtual[graph]
        geom = range_launch(self.queue.device.spec, n_virtual)
        wl = KernelWorkload(
            name="tigr.post.translate",
            geometry=geom,
            active_lanes=n_virtual,
            instructions_per_lane=5.0,
        )
        allv = np.arange(n_virtual)
        wl.add_stream(allv, 8, REGION_ROW_PTR + 200, label="v2r.read")
        wl.add_stream(allv, 8, REGION_USERDATA + 200, is_write=True, label="values.scatter")
        q.submit(wl)
