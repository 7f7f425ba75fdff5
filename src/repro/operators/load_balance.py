"""Workgroup-mapped load balancing for bitmap frontiers (paper §4.2-4.3).

The advance kernel's launch shape and lane accounting are derived here:

* each workgroup owns ``coarsening_factor`` bitmap words (the *CF* knob);
* within a workgroup, stage 1 compacts set bits into local memory with
  subgroup scans; stage 2 spreads each compacted vertex's neighbor range
  across subgroup lanes (Figure 4);
* when the bitmap word is wider than the subgroup (no *MSI*), each word
  needs multiple subgroup passes; when a word holds a single set bit only
  one subgroup does useful work (Figure 5b);
* words that are entirely zero still occupy lanes unless the Two-Layer
  Bitmap's offsets buffer removed them up front (Figure 5a).

:func:`characterize_bitmap_advance` turns those rules into the
:class:`~repro.perfmodel.cost.KernelWorkload` numbers the cost model
consumes; the same function serves the plain bitmap (``words_scanned`` =
whole bitmap) and the 2LB (``words_scanned`` = nonzero words only), which
is precisely the Figure 7 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.perfmodel.cache import SHORT_STREAM
from repro.sycl.device import TunedParameters
from repro.sycl.ndrange import Range, WorkgroupGeometry

#: model constants: per-lane dynamic instructions for the word-scan /
#: subgroup-compaction stage, and per-edge instructions for stage 2.
SCAN_OPS_PER_LANE = 6.0
#: dynamic instructions per edge in stage 2: range computation, column
#: load, functor predicate, frontier insert — measured GPU traversal
#: kernels run ~20-30 instructions per edge.
EDGE_OPS = 24.0
#: weight of cross-workgroup imbalance (idle lanes while the heaviest
#: workgroup finishes); intra-workgroup balance is what §4.2 provides.
IMBALANCE_WEIGHT = 0.15
#: NumPy sums float64 arrays pairwise in blocks of this many terms; a
#: shorter array it sums strictly left to right
PAIRWISE_BLOCK = 8


# Launch shapes are frozen, so kernels share them: each is built once per
# distinct (global size, workgroup size, subgroup size), in a bounded memo.
@lru_cache(maxsize=256)
def nd_range_geometry(global_size: int, workgroup_size: int, subgroup_size: int) -> WorkgroupGeometry:
    """The launch shape of an ``nd_range`` of ``global_size`` items in
    workgroups of ``workgroup_size``."""
    return WorkgroupGeometry(global_size, workgroup_size, subgroup_size)


@lru_cache(maxsize=256)
def range_geometry(global_size: int, workgroup_size: int, subgroup_size: int) -> WorkgroupGeometry:
    """The launch shape of a ``range`` of ``global_size`` items under a
    default workgroup size of ``workgroup_size``."""
    return Range(global_size).resolve(workgroup_size, subgroup_size)


@dataclass
class AdvanceShape:
    """Launch geometry + lane accounting for one advance kernel."""

    geometry: WorkgroupGeometry
    active_lanes: int
    instructions_per_lane: float
    serial_ops: float
    n_workgroups: int
    words_scanned: int
    edges: int
    max_wg_edges: int
    engaged_subgroups: float = 1.0

    @property
    def lane_utilization(self) -> float:
        total = self.geometry.total_lanes
        return self.active_lanes / total if total else 0.0


def characterize_bitmap_advance(
    params: TunedParameters,
    words_scanned: int,
    active_vertices: np.ndarray,
    degrees: np.ndarray,
    scan_position: np.ndarray,
    max_workgroups: int = 0,
) -> AdvanceShape:
    """Model one workgroup-mapped advance launch.

    Parameters
    ----------
    params:
        Device-inspector output (word width, subgroup size, workgroup
        size, coarsening factor).
    words_scanned:
        Bitmap words the kernel iterates over: the full bitmap for the
        single-layer layout, the offsets-buffer length for 2LB.
    active_vertices / degrees:
        The compacted vertices and their out-degrees.
    scan_position:
        For every active vertex, the position of its word in the kernel's
        iteration space (for 2LB this is the offset-buffer index, not the
        raw word index — consecutive nonzero words are packed).
    max_workgroups:
        Persistent-grid cap: "a set number of workgroups run on the GPU,
        iterating over the offsets buffer" (§4.3).  0 = one workgroup per
        coarsened word group (no persistence).
    """
    cf = max(1, params.coarsening_factor)
    if cf > 1:
        # CF optimization on: "adjust the coarsening factor to keep the
        # entire compute unit active" (§4.3) — the grid spreads one
        # workgroup per word up to the device's residency, then persists,
        # with each workgroup iterating over its share of the offsets.
        n_wg = max(1, min(words_scanned, max_workgroups or words_scanned))
    else:
        # CF off (Figure 7's Base/MSI configurations): one workgroup per
        # bitmap word, however sparse.
        n_wg = max(1, words_scanned)
    rounds = -(-max(1, words_scanned) // n_wg)  # words each WG visits
    wg_size = params.workgroup_size
    # an nd_range of n_wg whole workgroups
    geometry = nd_range_geometry(n_wg * wg_size, wg_size, params.subgroup_size)

    edges = int(degrees.sum()) if degrees.size else 0

    # Stage 1: every scheduled lane participates in the word scan (once per
    # round of the persistent grid); lanes beyond the subgroup width
    # re-scan when the word is wider than the subgroup (the MSI mismatch
    # penalty: passes = bits / sg).
    passes = max(1.0, params.bitmap_bits / params.subgroup_size)
    instructions = SCAN_OPS_PER_LANE * passes * rounds

    # Stage 2: neighbor work.  Parallelism within a workgroup depends on
    # subgroup *engagement*:
    #  * with MSI (word <= subgroup width), stage-1 compaction lands in
    #    local memory shared by the whole workgroup, so every subgroup can
    #    take vertices (Figure 4b) — engagement = min(S, active bits);
    #  * without MSI, each word's bits belong to its subgroup slices, so
    #    at most cf * (bits/sg) subgroup-slices have work (Figure 5b).
    # Idle subgroups still burn issue slots: edge lane-ops inflate by
    # S / engagement.  Cross-workgroup imbalance is smoothed by the
    # persistent grid's round-robin word assignment but not eliminated.
    sgs_per_wg = max(1, params.workgroup_size // params.subgroup_size)
    if params.bitmap_bits <= params.subgroup_size:  # MSI on
        max_engaged = sgs_per_wg
    else:
        slice_limit = max(1, int(cf * params.bitmap_bits // params.subgroup_size))
        max_engaged = min(sgs_per_wg, slice_limit)
    if active_vertices.size:
        if n_wg == 1:
            # one workgroup holds every active vertex: its numbers are the
            # totals, and the sums below have one term
            engaged = min(max_engaged, active_vertices.size)
            edge_ops = float(edges) * (sgs_per_wg / engaged) * EDGE_OPS
            engaged_total = float(engaged)
            max_wg_edges = edges
        elif n_wg < PAIRWISE_BLOCK and active_vertices.size <= SHORT_STREAM:
            # the per-workgroup numbers below with Python ints: np.sum adds
            # fewer than PAIRWISE_BLOCK float64 terms strictly left to
            # right, as += does (sum() compensates on Python >= 3.12)
            wg_bits = [0] * n_wg
            wg_edges = [0] * n_wg
            for position, degree in zip(scan_position.tolist(), degrees.tolist()):
                wg = position % n_wg
                wg_bits[wg] += 1
                wg_edges[wg] += degree
            edge_ops = 0.0
            engaged_total = 0
            for bits_in, edges_in in zip(wg_bits, wg_edges):
                working = min(max_engaged, bits_in)
                edge_ops += edges_in * (sgs_per_wg / max(1, working))
                engaged_total += working
            edge_ops *= EDGE_OPS
            engaged_total = float(engaged_total)
            max_wg_edges = int(max(wg_edges))
        else:
            wg_of_vertex = scan_position % n_wg
            wg_bits = np.bincount(wg_of_vertex, minlength=n_wg)
            # float64 sums of the degrees, in vertex order
            wg_edges = np.bincount(wg_of_vertex, weights=degrees, minlength=n_wg)
            # subgroups with work per workgroup (none in an empty one)
            working = np.minimum(max_engaged, wg_bits)
            inflation = sgs_per_wg / np.maximum(1, working)
            edge_ops = float((wg_edges * inflation).sum()) * EDGE_OPS
            # total memory-level parallelism: subgroups with work across the
            # grid (an integer sum, exact in any order)
            engaged_total = float(working.sum())
            max_wg_edges = int(wg_edges.max())
        mean_wg_edges = edges / n_wg
        imbalance_excess = (max_wg_edges - mean_wg_edges) * n_wg
    else:
        edge_ops = 0.0
        max_wg_edges = 0
        imbalance_excess = 0.0
        engaged_total = 1.0

    serial_ops = edge_ops + IMBALANCE_WEIGHT * imbalance_excess * EDGE_OPS

    # Useful lanes: one lane per active bit during compaction, one lane-op
    # per edge during stage 2 — everything else is divergence waste.
    active_lanes = int(min(geometry.total_lanes, active_vertices.size + edges / max(1.0, passes)))

    return AdvanceShape(
        geometry=geometry,
        active_lanes=active_lanes,
        instructions_per_lane=instructions,
        serial_ops=serial_ops,
        n_workgroups=n_wg,
        words_scanned=words_scanned,
        edges=edges,
        max_wg_edges=max_wg_edges,
        engaged_subgroups=engaged_total,
    )
