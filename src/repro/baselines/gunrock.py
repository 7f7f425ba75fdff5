"""Mini-Gunrock: vector-frontier framework with duplicate-removal passes.

Reimplements the mechanisms the paper attributes Gunrock's behaviour to
(§2.2, §4, §5.2):

* a dynamic **vector** frontier with simulated local-memory staging and
  geometric reallocation when full;
* advance accepts every qualifying edge, so the output vector accumulates
  **duplicates** (one per discovering parent) — worst on highly connected
  graphs like *kron*, where "many duplicated vertices [appear] at each
  advance step";
* a **post-processing filter kernel** after every advance sorts/compacts
  the vector to remove duplicates (Table 1: Post-Processing "Yes");
* memory footprint grows with the frontier (Figure 9's rising traces).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import FrameworkRunner, register_runner
from repro.exec import ExecContext
from repro.frontier import FrontierView, swap
from repro.frontier.vector import VectorFrontier
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.operators import advance
from repro.operators.advance import REGION_FRONTIER_IN, REGION_FRONTIER_OUT
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.ndrange import range_launch


@register_runner
class GunrockRunner(FrameworkRunner):
    """Vector-frontier levels with dedup post-passes."""

    name = "gunrock"

    def _load(self, coo: COOGraph) -> None:
        builder = GraphBuilder(self.queue)
        self.graph = builder.to_csr(coo)
        self.graph_sym = builder.to_csr(coo.symmetrized())
        self.preprocessing_ns = 0.0  # Gunrock also loads straight to CSR

    # ------------------------------------------------------------------ #
    def _dedup_kernel(self, frontier: VectorFrontier) -> int:
        """The post-advance duplicate-removal filter pass.

        Gunrock's filter probes a global hash/visited table per element —
        scattered reads and atomic claims keyed by vertex id (the scattered
        traffic behind Gunrock's low L1 hit rates in Table 5) — then
        prefix-sums the survivors into a compacted vector.
        """
        k = frontier.size_with_duplicates
        raw = frontier.raw_elements()
        removed = frontier.deduplicate()
        geom = range_launch(self.queue.device.spec, k)
        idx = np.arange(max(0, k))

        # kernel 1: mark — probe/claim a |V|-sized visited-hash per element
        mark = KernelWorkload(
            name="gunrock.filter.mark",
            geometry=geom,
            active_lanes=k,
            instructions_per_lane=10.0,
            serial_ops=k * 12.0,
            atomics=k,
            atomic_targets=max(1, k - removed),
        )
        if k:
            mark.add_stream(idx, 4, REGION_FRONTIER_IN, label="vector.read")
            mark.add_stream(raw, 4, REGION_FRONTIER_OUT, label="hash.probe")
            mark.add_stream(raw, 4, REGION_FRONTIER_OUT, is_write=True, label="hash.claim")
        self.queue.submit(mark)

        # kernel 2: scan — exclusive prefix sum of validity flags
        scan = KernelWorkload(
            name="gunrock.filter.scan",
            geometry=geom,
            active_lanes=k,
            instructions_per_lane=6.0,
            serial_ops=k * 4.0,
        )
        if k:
            scan.add_stream(idx, 4, REGION_FRONTIER_IN, label="flags.read")
            scan.add_stream(idx, 4, REGION_FRONTIER_IN, is_write=True, label="offsets.write")
        self.queue.submit(scan)

        # kernel 3: compact — scatter survivors to their slots
        compact = KernelWorkload(
            name="gunrock.filter.compact",
            geometry=geom,
            active_lanes=k,
            instructions_per_lane=6.0,
        )
        if k:
            compact.add_stream(idx, 4, REGION_FRONTIER_IN, label="vector.read")
            compact.add_stream(idx[: k - removed], 4, REGION_FRONTIER_OUT, is_write=True, label="vector.compact")
        self.queue.submit(compact)
        return removed

    def _frontiers(self, n: int, seeds: np.ndarray):
        fin = VectorFrontier(self.queue, n, FrontierView.VERTEX)
        fout = VectorFrontier(self.queue, n, FrontierView.VERTEX)
        fin.insert(seeds)
        return {"in": fin, "out": fout}

    def _level(self, ctx: ExecContext, functor) -> np.ndarray:
        """Advance into the output vector, then the dedup post-pass."""
        fin, fout = ctx.frontier("in"), ctx.frontier("out")
        advance.frontier(ctx.graph("csr"), fin, fout, functor).wait()
        self._dedup_kernel(fout)
        accepted = fout.active_elements()
        swap(fin, fout)
        fout.clear()
        return accepted

    def _sweep(self, ctx: ExecContext, ids: np.ndarray, functor) -> None:
        super()._sweep(ctx, ids, functor)
        self.queue.memory.tick("gunrock.bc.back")

    def _jump(self, labels) -> None:
        """Gunrock's CC hooks then pointer-jumps labels to their roots
        (a compute kernel per jump round, like our shortcutting)."""
        n = labels.size
        while True:
            parent = labels[labels]
            done = np.array_equal(parent, labels)
            labels[:] = parent
            geom = range_launch(self.queue.device.spec, n)
            wl = KernelWorkload(
                name="gunrock.cc.jump",
                geometry=geom,
                active_lanes=n,
                instructions_per_lane=6.0,
            )
            idx = np.arange(n)
            wl.add_stream(idx, 8, REGION_FRONTIER_IN, label="labels.read")
            wl.add_stream(idx, 8, REGION_FRONTIER_IN, is_write=True, label="labels.write")
            self.queue.submit(wl)
            if done:
                break
