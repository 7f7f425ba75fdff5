"""The *advance* primitive (paper Table 2, §3.1, §4.2-4.3).

``advance.frontier(G, in, out, functor)`` traverses the outgoing edges of
every active vertex in ``in``; for each edge the functor decides whether
the destination enters ``out``.  ``advance.vertices(G, [out], functor)``
does the same starting from *all* vertices (e.g. BC initialization).

Execution model per launch (bitmap-family input frontiers):

1. *(bitmaps with summary layers: the 2LB and the §4.4 tree)* pre-pass
   kernels scan the summary layers and write the nonzero word offsets to
   the global offsets buffer;
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

from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional, Tuple

import numpy as np

from repro.errors import FrontierError
from repro.frontier.base import Frontier
from repro.frontier.bitmap import BitmapFrontier
from repro.frontier.boolmap import BoolmapFrontier
from repro.frontier.vector import VectorFrontier
from repro.graph.csr import CSRGraph
from repro.operators.functor import as_mask
from repro.operators.load_balance import characterize_bitmap_advance, range_geometry
from repro.perfmodel.cache import count_distinct, unique_ints
from repro.perfmodel.cost import KernelWorkload, null_workload
from repro.sycl.device import TunedParameters
from repro.sycl.event import Event

# address-space regions (cost model): distinct buffers never alias
REGION_ROW_PTR = 1
REGION_COL_IDX = 2
REGION_WEIGHTS = 3
REGION_USERDATA = 4
REGION_FRONTIER_IN = 5
REGION_FRONTIER_OUT = 6
REGION_OFFSETS = 7
REGION_L2 = 8


#: bytes of user data an advance functor reads per edge (BFS reads
#: ``dist[dst]``): every algorithm's per-vertex arrays hold 8-byte items.
#: Used only for cost accounting.
FUNCTOR_READ_BYTES = 8


@dataclass(frozen=True)
class AdvanceConfig:
    """Tuning knobs for one advance call (device-inspector overrides).

    The defaults reproduce the *All* configuration of Figure 7; the
    ablation benchmark builds Base/MSI/CF variants by overriding
    ``params`` (word width / coarsening) and the frontier layout.
    """

    params: Optional[TunedParameters] = None


#: the configuration of an advance called without one
DEFAULT_CONFIG = AdvanceConfig()


def vertices(graph, out_frontier, functor, config: Optional[AdvanceConfig] = None) -> Event:
    """Advance from **all** vertices (``advance::vertices`` with output).

    ``out_frontier`` may be None (the store-less overload in Table 2).
    On a :class:`~repro.graph.csr.CSRGraph` the edges, launch shape and
    read streams come from the graph's sweep record (:class:`_Sweep`),
    and the functor gets read-only arrays.
    """
    queue = graph.queue
    with queue.span("advance.vertices"):
        return queue.submit(vertices_workload(graph, out_frontier, functor, config))


def frontier(graph, in_frontier: Frontier, out_frontier, functor, config: Optional[AdvanceConfig] = None) -> Event:
    """Advance from the active set of ``in_frontier`` (``advance::frontier``).

    ``out_frontier`` may be None for the store-less overload.
    """
    queue = graph.queue
    with queue.span("advance.frontier"):
        return queue.submit(frontier_workload(graph, in_frontier, out_frontier, functor, config))


def frontier_workload(
    graph, in_frontier: Frontier, out_frontier, functor, config: Optional[AdvanceConfig] = None
) -> KernelWorkload:
    """:func:`frontier` minus its span and its submit: the effect now,
    the workload returned."""
    return _advance_workload(graph, None, in_frontier, out_frontier, functor, config, "advance.frontier")


# --------------------------------------------------------------------- #
# core                                                                  #
# --------------------------------------------------------------------- #
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

    Whether the workload is submitted alone (:func:`frontier`, the plan
    executor's unfused steps) or folded into a fused kernel
    (:mod:`repro.exec.fusion`) is the caller's choice.  The offsets
    pre-pass kernels of a bitmap with summary layers are submitted from
    :func:`_scan_frontier`: they are a separate launch either way.
    """
    queue = graph.queue
    config = config or DEFAULT_CONFIG
    params = config.params or queue.inspect()

    # ---- stage 0: identify active vertices (+ frontier-scan accounting)
    if explicit_vertices is not None:
        active = explicit_vertices
        scan_words = -(-max(1, graph.get_vertex_count()) // params.bitmap_bits)
        scan_position = active // params.bitmap_bits
    else:
        active, scan_words, scan_position = _scan_frontier(queue, in_frontier, params, kernel)

    # ---- stages 1-3: neighbor expansion, functor, output insertion
    src, dst, eid, w = graph.gather_neighbors(active)
    accepted = _apply(functor, src, dst, eid, w, out_frontier)

    # ---- cost accounting (skipped when the queue never consumes it)
    if not queue.enable_profiling:
        return null_workload(kernel)
    wl = _launch(graph, kernel, params, active, scan_words, scan_position, isinstance(in_frontier, VectorFrontier))
    _charge_reads(wl, graph, active, dst, eid, params, scan_words)
    _charge_writes(wl, accepted, out_frontier, params)
    return wl


def _apply(functor, src, dst, eid, w, out_frontier: Optional[Frontier]) -> np.ndarray:
    """Run ``functor`` over expanded edges and insert the destinations it
    accepts into ``out_frontier`` (bitmap OR / vector append); returns
    them."""
    if src.size:
        mask = as_mask(functor(src, dst, eid, w), src.size, "advance")
        accepted = dst[mask]
    else:
        accepted = np.empty(0, dtype=np.int64)
    if out_frontier is not None and accepted.size:
        out_frontier.insert(accepted)
    return accepted


def _launch(
    graph,
    kernel: str,
    params: TunedParameters,
    active: np.ndarray,
    scan_words: int,
    scan_position: np.ndarray,
    vector_input: bool = False,
) -> KernelWorkload:
    """The advance kernel's workload with its launch shape and no streams."""
    degrees = graph.out_degrees(active) if active.size else np.empty(0, np.int64)
    spec = graph.queue.device.spec
    persistent_cap = spec.compute_units * spec.max_workgroups_per_cu
    shape = characterize_bitmap_advance(
        params, scan_words, active, degrees, scan_position, max_workgroups=persistent_cap
    )
    serial_ops = shape.serial_ops
    if vector_input:
        # vector frontiers need merge-path/prefix-sum partitioning to map
        # edges onto lanes (the bitmap gets this for free from word order)
        serial_ops *= 1.3
    return KernelWorkload(
        name=kernel,
        geometry=shape.geometry,
        active_lanes=shape.active_lanes,
        instructions_per_lane=shape.instructions_per_lane,
        serial_ops=serial_ops,
        engaged_subgroups=shape.engaged_subgroups,
    )


class _Sweep:
    """What an advance from every vertex of a
    :class:`~repro.graph.csr.CSRGraph` takes from the graph alone, under
    one launch configuration (the effective :class:`TunedParameters`).

    ``edges`` are its edges in CSR order as read-only ``(src, dst, eid,
    w)`` arrays, shared by the graph's records; ``reads`` is the kernel's
    workload with its launch shape and read streams (``frontier.scan``,
    ``row_ptr``, ``row_ptr+1``, ``col_idx``, ``weights``,
    ``functor.read``), also read-only; ``memory`` their memory-hierarchy
    counts, once a profiled call that writes no frontier priced them.
    The graph keeps its records in ``sweeps`` until it is freed.
    """

    def __init__(self, graph: CSRGraph, params: TunedParameters):
        n = graph.get_vertex_count()
        active = np.arange(n, dtype=np.int64)
        shared = next(iter(graph.sweeps.values()), None)
        self.edges = shared.edges if shared is not None else graph.gather_neighbors(active)
        _, dst, eid, _ = self.edges
        scan_words = -(-max(1, n) // params.bitmap_bits)
        self.reads = _launch(graph, "advance.vertices", params, active, scan_words, active // params.bitmap_bits)
        _charge_reads(self.reads, graph, active, dst, eid, params, scan_words)
        for array in chain(self.edges, (s.addresses for s in self.reads.streams)):
            array.flags.writeable = False
        self.memory: Optional[tuple] = None


def vertices_workload(
    graph, out_frontier, functor, config: Optional[AdvanceConfig] = None
) -> KernelWorkload:
    """:func:`vertices` minus its span and its submit.  A
    :class:`CSRGraph` builds its sweep record for this configuration on
    the first call; every call runs the functor on the record's edges,
    and the workload carries the record's memory counts unless the call
    writes a frontier.  Any other graph (``DynamicGraph``, custom
    representations) expands its edges on every call."""
    if not isinstance(graph, CSRGraph):
        all_v = np.arange(graph.get_vertex_count(), dtype=np.int64)
        return _advance_workload(graph, all_v, None, out_frontier, functor, config, "advance.vertices")
    queue = graph.queue
    config = config or DEFAULT_CONFIG
    params = config.params or queue.inspect()
    sweep = graph.sweeps.get(params)
    if sweep is None:
        sweep = graph.sweeps[params] = _Sweep(graph, params)
    accepted = _apply(functor, *sweep.edges, out_frontier)
    if not queue.enable_profiling:
        return null_workload("advance.vertices")
    wl = replace(sweep.reads, streams=list(sweep.reads.streams))
    if out_frontier is not None and accepted.size:
        # the writes join the L2 stream: priced in full
        _charge_writes(wl, accepted, out_frontier, params)
        return wl
    if sweep.memory is None:
        sweep.memory = queue.cost_model.memory_counts(wl.streams)
    wl.memory = sweep.memory
    return wl


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

    if isinstance(in_frontier, BitmapFrontier):
        if in_frontier.n_layers == 1:
            # no summary layer: the advance scans the whole bitmap, in
            # word order
            active = in_frontier.active_elements()
            return active, max(1, in_frontier.n_words), in_frontier.storage(active)[0]
        # pre-pass kernels fill the offsets buffer.  The summary walk is
        # memoized against the frontier's mutation epoch, so
        # compute_offsets() and active_elements() share ONE walk — and
        # the driver's empty()/count() call already primed it.  Only host
        # wall-time changes; the kernels charged are identical to the
        # unshared path.
        offsets = in_frontier.compute_offsets()
        active = in_frontier.active_elements()
        _submit_offsets_kernels(queue, in_frontier, offsets, params, kernel)
        # scan position = index within the compacted offsets buffer
        position = np.searchsorted(offsets, in_frontier.storage(active)[0])
        return active, max(1, offsets.size), position

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


def _submit_offsets_kernels(
    queue, in_frontier: BitmapFrontier, offsets: np.ndarray, params: TunedParameters, kernel: str
) -> None:
    """Submit the pre-advance kernels of a bitmap with summary layers.

    The 2LB's kernel scans layer 1 for the nonzero layer-0 words, probes
    them and writes their offsets (§4.3).  Each layer above it — the
    bitmap-tree of §4.4 — adds one *dependent* kernel over its words:
    "extra synchronization during advance operations".  Without native
    specialization constants the dynamic layer loop cannot be unrolled,
    so those kernels pay extra per-word instructions.
    """
    word_bytes = in_frontier.words.dtype.itemsize
    for k in range(1, in_frontier.n_layers):
        name = f"{kernel}.offsets" if k == 1 else f"{kernel}.offsets.l{k}"
        if not queue.enable_profiling:
            queue.submit(null_workload(name))
            continue
        n_words = int(in_frontier.layers[k].size)
        if k == 1:
            instructions = 6.0
        else:
            instructions = 6.0 if queue.device.traits.spec_constants_native else 10.0
        pre = KernelWorkload(
            name=name,
            geometry=range_geometry(max(1, n_words), params.workgroup_size, params.subgroup_size),
            active_lanes=n_words,
            instructions_per_lane=instructions,
        )
        if k == 1:
            pre.add_stream(np.arange(n_words), word_bytes, REGION_L2, label="l2.words")
            pre.add_stream(offsets, word_bytes, REGION_FRONTIER_IN, label="l1.probe")
            pre.add_stream(np.arange(offsets.size), 8, REGION_OFFSETS, is_write=True, label="offsets.out")
        else:
            pre.add_stream(np.arange(n_words), word_bytes, REGION_L2 + k, label=f"layer{k}.words")
            pre.add_stream(np.arange(max(1, offsets.size)), 8, REGION_OFFSETS, is_write=True, label="offsets")
        queue.submit(pre)


def _charge_reads(
    wl: KernelWorkload,
    graph,
    active: np.ndarray,
    dst: np.ndarray,
    eid: np.ndarray,
    params: TunedParameters,
    scan_words: int = 0,
) -> None:
    """Record the global-memory address streams the advance kernel reads."""
    # the frontier words the kernel scans (all words for a flat bitmap,
    # offsets-selected ones under summary layers, vector slots for a
    # vector frontier)
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
        wl.add_stream(dst, FUNCTOR_READ_BYTES, REGION_USERDATA, label="functor.read")


def _charge_writes(
    wl: KernelWorkload, accepted: np.ndarray, out_frontier: Optional[Frontier], params: TunedParameters
) -> None:
    """Record the advance kernel's output-frontier writes and atomics."""
    if out_frontier is None or not accepted.size:
        return
    if isinstance(out_frontier, BitmapFrontier):
        words = _charge_bitmap_insert(wl, out_frontier, accepted, "out.bitmap")
        if out_frontier.n_layers > 1:
            # the 2LB's summary write: each accepted word's layer-1
            # word, as a plain store
            word_bytes = out_frontier.words.dtype.itemsize
            summary = words // out_frontier.bits
            wl.add_stream(summary, word_bytes, REGION_L2, is_write=True, label="out.l2")
            # every tree layer above it is one atomic write per
            # distinct word it touches
            for k in range(2, out_frontier.n_layers):
                summary = unique_ints(summary // out_frontier.bits)
                wl.add_stream(summary, word_bytes, REGION_L2 + k, is_write=True, label=f"out.layer{k}")
                wl.atomics += int(summary.size)
                wl.atomic_targets += int(summary.size)
        return
    vector = isinstance(out_frontier, VectorFrontier)
    addresses, item_bytes = out_frontier.storage(accepted)
    label = "out.vector" if vector else "out.boolmap"
    wl.add_stream(addresses, item_bytes, REGION_FRONTIER_OUT, is_write=True, label=label)
    if vector:
        # appended entries: coalesced tail writes + one global atomic
        # tail bump per (simulated) workgroup flush
        wl.atomics += max(1, accepted.size // params.workgroup_size)
        wl.atomic_targets += 1


def _charge_bitmap_insert(
    wl: KernelWorkload, frontier: BitmapFrontier, ids: np.ndarray, label: str
) -> np.ndarray:
    """Charge an advance's OR of ``ids`` into the bitmap ``frontier``:
    the layer-0 words it writes, and one atomic per touched word
    (subgroup compaction pre-merges same-word bits in registers, a
    warp-aggregated atomicOr).  Returns the words."""
    words, word_bytes = frontier.storage(ids)
    wl.add_stream(words, word_bytes, REGION_FRONTIER_OUT, is_write=True, label=label)
    n_words = count_distinct(words)
    wl.atomics += n_words
    wl.atomic_targets += n_words
    return words


def charge_frontier_probe(
    wl: KernelWorkload, frontier: Frontier, ids: np.ndarray, region: int, label: str
) -> None:
    """Charge reads of a frontier's membership structure for ``ids``, at
    the layout's actual storage (:meth:`~repro.frontier.base.Frontier.storage`)."""
    if ids.size:
        addresses, item_bytes = frontier.storage(ids)
        wl.add_stream(addresses, item_bytes, region, label=label)


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
        return queue.submit(pull_workload(csc_graph, in_frontier, out_frontier, functor, candidates, config))


def pull_workload(
    csc_graph,
    in_frontier: Frontier,
    out_frontier: Optional[Frontier],
    functor,
    candidates: np.ndarray,
    config: Optional[AdvanceConfig] = None,
) -> KernelWorkload:
    """:func:`frontier_pull` minus its span and its submit."""
    queue = csc_graph.queue
    config = config or DEFAULT_CONFIG
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
    if accepted.size and isinstance(out_frontier, BitmapFrontier):
        # one atomicOr per accepted vertex: the pull has no subgroup
        # compaction to merge same-word bits
        words, word_bytes = out_frontier.storage(accepted)
        wl.add_stream(words, word_bytes, REGION_FRONTIER_OUT, is_write=True, label="out.bitmap")
        wl.atomics += int(accepted.size)
        wl.atomic_targets += count_distinct(words)
    return wl
