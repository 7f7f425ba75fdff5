"""The *advance* primitive (paper Table 2, §3.1, §4.2-4.3).

``advance.frontier(G, in, out, functor)`` traverses the outgoing edges of
every active vertex in ``in``; for each edge the functor decides whether
the destination enters ``out``.  ``advance.vertices(G, [out], functor)``
does the same starting from *all* vertices (e.g. BC initialization).

Execution model per launch (bitmap-family input frontiers):

1. *(2LB only)* a pre-pass kernel scans the second layer and writes the
   nonzero word offsets to the global offsets buffer;
2. the advance kernel maps workgroups to (coarsened groups of) bitmap
   words, compacts active bits into local memory with subgroup scans, and
   spreads each vertex's neighbor range across subgroup lanes;
3. accepted destinations are OR-ed into the output bitmap (atomic, but
   naturally duplicate-free — no post-processing pass exists, which is
   the framework's headline property).

A pull variant (:func:`frontier_pull`, Beamer-style) iterates *unvisited*
vertices over a CSC graph and looks backwards for frontier parents; the
paper's BFS is push-based but notes both are possible, and SEP-Graph's
adaptive baseline needs the pull path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import FrontierError
from repro.frontier.base import Frontier
from repro.frontier.bitmap import BitmapFrontier
from repro.frontier.boolmap import BoolmapFrontier
from repro.frontier.multi_layer_bitmap import MultiLayerBitmapFrontier
from repro.frontier.two_layer_bitmap import TwoLayerBitmapFrontier
from repro.frontier.vector import VectorFrontier
from repro.operators.functor import as_mask
from repro.operators.load_balance import characterize_bitmap_advance
from repro.perfmodel.cache import count_distinct, unique_ints
from repro.perfmodel.cost import KernelWorkload, null_workload
from repro.sycl.device import TunedParameters
from repro.sycl.event import Event
from repro.sycl.ndrange import Range

# address-space regions (cost model): distinct buffers never alias
REGION_ROW_PTR = 1
REGION_COL_IDX = 2
REGION_WEIGHTS = 3
REGION_USERDATA = 4
REGION_FRONTIER_IN = 5
REGION_FRONTIER_OUT = 6
REGION_OFFSETS = 7
REGION_L2 = 8


@dataclass
class AdvanceConfig:
    """Tuning knobs for one advance call (device-inspector overrides).

    The defaults reproduce the *All* configuration of Figure 7; the
    ablation benchmark builds Base/MSI/CF variants by overriding
    ``params`` (word width / coarsening) and the frontier layout.
    """

    params: Optional[TunedParameters] = None
    #: bytes of user data the functor reads per edge (BFS reads dist[dst]:
    #: 4 or 8 bytes). Used only for cost accounting.
    functor_read_bytes: int = 8


def vertices(graph, out_frontier, functor, config: Optional[AdvanceConfig] = None) -> Event:
    """Advance from **all** vertices (``advance::vertices`` with output).

    ``out_frontier`` may be None (the store-less overload in Table 2).
    """
    all_v = np.arange(graph.get_vertex_count(), dtype=np.int64)
    return _advance_from(graph, all_v, None, out_frontier, functor, config, kernel="advance.vertices")


def frontier(graph, in_frontier: Frontier, out_frontier, functor, config: Optional[AdvanceConfig] = None) -> Event:
    """Advance from the active set of ``in_frontier`` (``advance::frontier``).

    ``out_frontier`` may be None for the store-less overload.
    """
    return _advance_from(graph, None, in_frontier, out_frontier, functor, config, kernel="advance.frontier")


# --------------------------------------------------------------------- #
# core                                                                  #
# --------------------------------------------------------------------- #
def _advance_from(
    graph,
    explicit_vertices: Optional[np.ndarray],
    in_frontier: Optional[Frontier],
    out_frontier: Optional[Frontier],
    functor,
    config: Optional[AdvanceConfig],
    kernel: str,
) -> Event:
    queue = graph.queue
    with queue.span(kernel):
        wl = _advance_workload(
            graph, explicit_vertices, in_frontier, out_frontier, functor, config, kernel
        )
        return queue.submit(wl)


def _advance_workload(
    graph,
    explicit_vertices: Optional[np.ndarray],
    in_frontier: Optional[Frontier],
    out_frontier: Optional[Frontier],
    functor,
    config: Optional[AdvanceConfig],
    kernel: str,
) -> KernelWorkload:
    """The advance's NumPy effect + characterized workload, **no submit**.

    This is the seam the execution layer's fusion pass uses
    (:mod:`repro.exec.fusion`): the effect and the workload description
    happen here, identically to the submitting path; whether the
    workload is submitted standalone (:func:`frontier` / :func:`vertices`)
    or merged into a fused kernel is the caller's choice.  2LB/MLB
    offsets pre-pass kernels are still submitted from
    :func:`_scan_frontier` — they are a separate launch either way.
    """
    queue = graph.queue
    config = config or AdvanceConfig()
    params = config.params or queue.inspect()

    # ---- stage 0: identify active vertices (+ frontier-scan accounting)
    if explicit_vertices is not None:
        active = explicit_vertices
        scan_words = -(-max(1, graph.get_vertex_count()) // params.bitmap_bits)
        scan_position = active // params.bitmap_bits
    else:
        active, scan_words, scan_position = _scan_frontier(queue, in_frontier, params, kernel)

    # ---- stages 1-2: neighbor expansion + functor
    src, dst, eid, w = graph.gather_neighbors(active)
    if src.size:
        mask = as_mask(functor(src, dst, eid, w), src.size, "advance")
        accepted = dst[mask]
    else:
        accepted = np.empty(0, dtype=np.int64)

    # ---- stage 3: output frontier insertion (bitmap OR / vector append)
    if out_frontier is not None and accepted.size:
        out_frontier.insert(accepted)

    # ---- cost accounting (skipped when the queue never consumes it)
    if not queue.enable_profiling:
        return null_workload(kernel)
    degrees = graph.out_degrees(active) if active.size else np.empty(0, np.int64)
    spec = queue.device.spec
    persistent_cap = spec.compute_units * spec.max_workgroups_per_cu
    shape = characterize_bitmap_advance(
        params, scan_words, active, degrees, scan_position, max_workgroups=persistent_cap
    )
    serial_ops = shape.serial_ops
    if isinstance(in_frontier, VectorFrontier):
        # vector frontiers need merge-path/prefix-sum partitioning to map
        # edges onto lanes (the bitmap gets this for free from word order)
        serial_ops *= 1.3
    wl = KernelWorkload(
        name=kernel,
        geometry=shape.geometry,
        active_lanes=shape.active_lanes,
        instructions_per_lane=shape.instructions_per_lane,
        serial_ops=serial_ops,
        engaged_subgroups=shape.engaged_subgroups,
    )
    _charge_memory(wl, graph, active, src, dst, eid, accepted, out_frontier, params, config, scan_words)
    return wl


def frontier_workload(
    graph, in_frontier: Frontier, out_frontier, functor, config: Optional[AdvanceConfig] = None
) -> KernelWorkload:
    """:func:`frontier` minus the submit: effect now, workload returned."""
    with graph.queue.span("advance.frontier"):
        return _advance_workload(
            graph, None, in_frontier, out_frontier, functor, config, "advance.frontier"
        )


def vertices_workload(
    graph, out_frontier, functor, config: Optional[AdvanceConfig] = None
) -> KernelWorkload:
    """:func:`vertices` minus the submit: effect now, workload returned."""
    all_v = np.arange(graph.get_vertex_count(), dtype=np.int64)
    with graph.queue.span("advance.vertices"):
        return _advance_workload(
            graph, all_v, None, out_frontier, functor, config, "advance.vertices"
        )


def _scan_frontier(
    queue, in_frontier: Frontier, params: TunedParameters, kernel: str
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Extract active vertices and model the frontier-scan footprint.

    Returns (active_vertices, words_scanned_by_advance, scan_position) —
    scan_position maps each active vertex to its index in the kernel's
    word-iteration space.
    """
    if in_frontier is None:
        raise FrontierError("advance.frontier requires an input frontier")

    if isinstance(in_frontier, TwoLayerBitmapFrontier):
        # pre-pass kernel: scan layer 2, emit nonzero word offsets.  The
        # layer-2 expansion is memoized against the frontier's mutation
        # epoch, so compute_offsets() and active_elements() share ONE
        # scan — and the driver's empty()/count() call already primed
        # it.  Only host wall-time changes; the kernels charged below
        # are identical to the unshared path.
        offsets = in_frontier.compute_offsets()
        active = in_frontier.active_elements()
        if queue.enable_profiling:
            geom = Range(max(1, in_frontier.n_words_l2)).resolve(
                params.workgroup_size, params.subgroup_size
            )
            pre = KernelWorkload(
                name=f"{kernel}.offsets",
                geometry=geom,
                active_lanes=in_frontier.n_words_l2,
                instructions_per_lane=6.0,
            )
            word_bytes = in_frontier.words.dtype.itemsize
            pre.add_stream(np.arange(in_frontier.n_words_l2), word_bytes, REGION_L2, label="l2.words")
            pre.add_stream(offsets, word_bytes, REGION_FRONTIER_IN, label="l1.probe")
            pre.add_stream(np.arange(offsets.size), 8, REGION_OFFSETS, is_write=True, label="offsets.out")
        else:
            pre = null_workload(f"{kernel}.offsets")
        queue.submit(pre)
        # scan position = index within the compacted offsets buffer
        word_of_v = active // in_frontier.bits
        position = np.searchsorted(offsets, word_of_v)
        return active, max(1, offsets.size), position

    if isinstance(in_frontier, MultiLayerBitmapFrontier):
        if in_frontier.n_layers == 1:
            # no summary layer: the advance must scan the whole bitmap,
            # exactly like the flat BitmapFrontier
            active = in_frontier.active_elements()
            return active, max(1, in_frontier.n_words), active // in_frontier.bits
        # bitmap-tree (§4.4): one *dependent* offsets kernel per extra
        # layer — "extra synchronization during advance operations" — and,
        # without native specialization constants, the dynamic layer loop
        # cannot be unrolled (extra per-word instructions).  As with 2LB,
        # the tree walk is epoch-memoized: offsets and expansion share it.
        offsets = in_frontier.compute_offsets()
        active = in_frontier.active_elements()
        unrolled = queue.device.traits.spec_constants_native
        layer_ops = 6.0 if unrolled else 10.0
        for k in range(1, in_frontier.n_layers):
            layer = in_frontier.layers[k]
            if not queue.enable_profiling:
                queue.submit(null_workload(f"{kernel}.offsets.l{k}"))
                continue
            geom = Range(max(1, layer.size)).resolve(params.workgroup_size, params.subgroup_size)
            pre = KernelWorkload(
                name=f"{kernel}.offsets.l{k}",
                geometry=geom,
                active_lanes=int(layer.size),
                instructions_per_lane=layer_ops,
            )
            wb = layer.dtype.itemsize
            pre.add_stream(np.arange(layer.size), wb, REGION_L2 + k, label=f"l{k}.words")
            pre.add_stream(np.arange(max(1, offsets.size)), 8, REGION_OFFSETS, is_write=True, label="offsets")
            queue.submit(pre)
        word_of_v = active // in_frontier.bits
        position = np.searchsorted(offsets, word_of_v)
        return active, max(1, offsets.size), position

    if isinstance(in_frontier, BitmapFrontier):
        active = in_frontier.active_elements()
        return active, max(1, in_frontier.n_words), active // in_frontier.bits

    if isinstance(in_frontier, VectorFrontier):
        # vector frontiers are consumed with duplicates — the advance
        # processes every entry (this is what the dedup post-pass exists
        # to curb in Gunrock-style frameworks).
        raw = in_frontier.raw_elements()
        words = -(-max(1, raw.size) // params.bitmap_bits)
        return raw, words, np.arange(raw.size) // params.bitmap_bits

    if isinstance(in_frontier, BoolmapFrontier):
        active = in_frontier.active_elements()
        # byte-per-vertex: the scan walks 8x the words of a bitmap
        words = -(-max(1, in_frontier.n_elements * 8) // params.bitmap_bits)
        return active, words, active * 8 // params.bitmap_bits

    raise FrontierError(f"unsupported frontier layout {type(in_frontier).__name__}")


def _charge_memory(
    wl: KernelWorkload,
    graph,
    active: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    eid: np.ndarray,
    accepted: np.ndarray,
    out_frontier: Optional[Frontier],
    params: TunedParameters,
    config: AdvanceConfig,
    scan_words: int = 0,
) -> None:
    """Record the advance kernel's global-memory address streams."""
    # the frontier words the kernel scans (all words for a flat bitmap,
    # offsets-selected ones for 2LB, vector slots for a vector frontier)
    if scan_words:
        word_bytes = params.bitmap_bits // 8
        wl.add_stream(np.arange(scan_words), word_bytes, REGION_FRONTIER_IN, label="frontier.scan")
    if active.size:
        wl.add_stream(active, 4, REGION_ROW_PTR, label="row_ptr")
        wl.add_stream(active + 1, 4, REGION_ROW_PTR, label="row_ptr+1")
    if eid.size:
        wl.add_stream(eid, 4, REGION_COL_IDX, label="col_idx")
        if graph.weights is not None:
            wl.add_stream(eid, 4, REGION_WEIGHTS, label="weights")
        # user-data reads inside the functor (e.g. dist[dst])
        wl.add_stream(dst, config.functor_read_bytes, REGION_USERDATA, label="functor.read")
    if out_frontier is not None and accepted.size:
        if isinstance(out_frontier, (BitmapFrontier, TwoLayerBitmapFrontier, MultiLayerBitmapFrontier)):
            words = accepted // out_frontier.bits
            wl.add_stream(words, out_frontier.words.dtype.itemsize, REGION_FRONTIER_OUT, is_write=True, label="out.bitmap")
            # subgroup compaction pre-merges same-word bits in registers
            # (warp-aggregated atomicOr): one atomic per touched word
            n_words_touched = count_distinct(words)
            wl.atomics += n_words_touched
            wl.atomic_targets += n_words_touched
            if isinstance(out_frontier, TwoLayerBitmapFrontier):
                l2_words = words // out_frontier.bits
                wl.add_stream(l2_words, out_frontier.words_l2.dtype.itemsize, REGION_L2, is_write=True, label="out.l2")
            elif isinstance(out_frontier, MultiLayerBitmapFrontier):
                # every extra tree layer is another atomic summary write
                layer_words = words
                for k in range(1, out_frontier.n_layers):
                    layer_words = unique_ints(layer_words // out_frontier.bits)
                    wl.add_stream(
                        layer_words, 8, REGION_L2 + k, is_write=True, label=f"out.l{k}"
                    )
                    wl.atomics += int(layer_words.size)
                    wl.atomic_targets += int(layer_words.size)
        elif isinstance(out_frontier, VectorFrontier):
            # appended entries: coalesced tail writes + one global atomic
            # tail bump per (simulated) workgroup flush
            wl.add_stream(np.arange(accepted.size), 4, REGION_FRONTIER_OUT, is_write=True, label="out.vector")
            wl.atomics += max(1, accepted.size // params.workgroup_size)
            wl.atomic_targets += 1
        elif isinstance(out_frontier, BoolmapFrontier):
            wl.add_stream(accepted, 1, REGION_FRONTIER_OUT, is_write=True, label="out.boolmap")


def charge_frontier_probe(
    wl: KernelWorkload, frontier: Frontier, ids: np.ndarray, region: int, label: str
) -> None:
    """Charge reads of a frontier's membership structure for ``ids``.

    Uses the layout's *actual* storage: ``bits``-wide words for the
    bitmap family (PR 1 made the width configurable — a hardcoded
    ``// 64`` mischarges 32-bit bitmaps), one byte per element for the
    boolmap, and contiguous slots for the vector — the latter two have
    no bitmap words to stream.
    """
    if ids.size == 0:
        return
    bits = getattr(frontier, "bits", None)
    if bits is not None:
        wl.add_stream(
            ids // bits, frontier.words.dtype.itemsize, region, label=label
        )
    elif isinstance(frontier, BoolmapFrontier):
        wl.add_stream(ids, 1, region, label=label)
    else:  # vector: the scan reads the slots in storage order
        wl.add_stream(np.arange(ids.size), 4, region, label=label)


# --------------------------------------------------------------------- #
# pull variant                                                          #
# --------------------------------------------------------------------- #
def frontier_pull(
    csc_graph,
    in_frontier: Frontier,
    out_frontier: Optional[Frontier],
    functor,
    candidates: np.ndarray,
    config: Optional[AdvanceConfig] = None,
) -> Event:
    """Pull-mode advance over a CSC graph (Beamer direction optimization).

    Each *candidate* (typically: unvisited) vertex scans its in-neighbors
    and joins ``out_frontier`` when the functor accepts an edge from a
    vertex active in ``in_frontier``.  A real pull kernel stops at the
    first accepted parent; the cost accounting halves the edge streams to
    reflect that early exit (the expected scan depth for a uniformly
    placed parent).
    """
    queue = csc_graph.queue
    with queue.span("advance.frontier.pull"):
        wl = _pull_workload(csc_graph, in_frontier, out_frontier, functor, candidates, config)
        return queue.submit(wl)


def pull_workload(
    csc_graph,
    in_frontier: Frontier,
    out_frontier: Optional[Frontier],
    functor,
    candidates: np.ndarray,
    config: Optional[AdvanceConfig] = None,
) -> KernelWorkload:
    """:func:`frontier_pull` minus the submit (fusion seam)."""
    with csc_graph.queue.span("advance.frontier.pull"):
        return _pull_workload(csc_graph, in_frontier, out_frontier, functor, candidates, config)


def _pull_workload(
    csc_graph,
    in_frontier: Frontier,
    out_frontier: Optional[Frontier],
    functor,
    candidates: np.ndarray,
    config: Optional[AdvanceConfig],
) -> KernelWorkload:
    queue = csc_graph.queue
    config = config or AdvanceConfig()
    params = config.params or queue.inspect()
    candidates = np.asarray(candidates, dtype=np.int64)

    src, dst, eid, w = csc_graph.gather_in_neighbors(candidates)
    if src.size:
        parent_ok = in_frontier.contains(src)
        mask = parent_ok & as_mask(functor(src, dst, eid, w), src.size, "advance")
        accepted = unique_ints(dst[mask])
    else:
        accepted = np.empty(0, dtype=np.int64)
    if out_frontier is not None and accepted.size:
        out_frontier.insert(accepted)

    if not queue.enable_profiling:
        return null_workload("advance.frontier.pull")
    degrees = csc_graph.in_degrees(candidates) if candidates.size else np.empty(0, np.int64)
    shape = characterize_bitmap_advance(
        params,
        -(-max(1, candidates.size) // params.bitmap_bits),
        candidates,
        degrees // 2,  # early exit: expected half scan
        np.arange(candidates.size) // params.bitmap_bits,
    )
    wl = KernelWorkload(
        name="advance.frontier.pull",
        geometry=shape.geometry,
        active_lanes=shape.active_lanes,
        instructions_per_lane=shape.instructions_per_lane,
        serial_ops=shape.serial_ops,
        engaged_subgroups=shape.engaged_subgroups,
    )
    half = slice(None, None, 2)
    if candidates.size:
        wl.add_stream(candidates, 4, REGION_ROW_PTR, label="col_ptr")
    if eid.size:
        wl.add_stream(eid[half], 4, REGION_COL_IDX, label="row_idx")
        # membership probes against the input frontier's actual layout
        charge_frontier_probe(wl, in_frontier, src[half], REGION_FRONTIER_IN, "in.probe")
    if out_frontier is not None and accepted.size and hasattr(out_frontier, "bits"):
        words = accepted // out_frontier.bits
        wl.add_stream(
            words,
            out_frontier.words.dtype.itemsize,
            REGION_FRONTIER_OUT,
            is_write=True,
            label="out.bitmap",
        )
        wl.atomics += int(accepted.size)
        wl.atomic_targets += count_distinct(words)
    return wl
