"""The *filter* primitive (paper Table 2).

``filter.inplace(G, frontier, functor)`` drops elements failing the
functor; ``filter.external(G, in, out, functor)`` copies passing elements
into a second frontier.  Like compute, filter launches with a plain
``range`` — one workitem per active element, no load-balancing machinery.

Frontier traffic is charged against each frontier's *actual* layout:
bitmap-family frontiers stream their ``bits``-wide words (a hardcoded
``// 64`` here used to mischarge 32-bit bitmaps), the boolmap streams
bytes, the vector streams slots — and only bitmap-family writes pay
word-level atomics.
"""

from __future__ import annotations

import numpy as np

from repro.frontier.base import Frontier
from repro.frontier.boolmap import BoolmapFrontier
from repro.operators.advance import (
    REGION_FRONTIER_IN,
    REGION_FRONTIER_OUT,
    REGION_USERDATA,
    charge_frontier_probe,
)
from repro.operators.functor import as_mask
from repro.perfmodel.cache import count_distinct
from repro.perfmodel.cost import KernelWorkload, null_workload
from repro.sycl.event import Event
from repro.sycl.ndrange import Range


def _charge_frontier_write(
    wl: KernelWorkload, frontier: Frontier, ids: np.ndarray, wg_size: int
) -> None:
    """Charge the filter's writes into ``frontier`` for ``ids``."""
    if ids.size == 0:
        return
    bits = getattr(frontier, "bits", None)
    if bits is not None:
        words = ids // bits
        wl.add_stream(
            words,
            frontier.words.dtype.itemsize,
            REGION_FRONTIER_OUT,
            is_write=True,
            label="filter.write",
        )
        # word-level read-modify-write per element, contended per word
        wl.atomics += int(ids.size)
        wl.atomic_targets += count_distinct(words)
    elif isinstance(frontier, BoolmapFrontier):
        # idempotent byte stores: no atomics needed
        wl.add_stream(ids, 1, REGION_FRONTIER_OUT, is_write=True, label="filter.write")
    else:
        # vector append: coalesced tail writes + one tail bump per
        # (simulated) workgroup flush
        wl.add_stream(
            np.arange(ids.size), 4, REGION_FRONTIER_OUT, is_write=True, label="filter.write"
        )
        wl.atomics += max(1, int(ids.size) // max(1, wg_size))
        wl.atomic_targets += 1


def _filter_workload(
    queue, name: str, in_frontier: Frontier, ids: np.ndarray,
    out_frontier: Frontier, written: np.ndarray,
) -> KernelWorkload:
    """Characterize the filter's range launch (no submit — fusion seam)."""
    if not queue.enable_profiling:
        return null_workload(name)
    spec = queue.device.spec
    wg_size = spec.max_workgroup_size // 4
    geom = Range(max(1, ids.size)).resolve(wg_size, spec.preferred_subgroup_size)
    wl = KernelWorkload(
        name=name,
        geometry=geom,
        active_lanes=int(ids.size),
        instructions_per_lane=6.0,
    )
    if ids.size:
        wl.add_stream(ids, 8, REGION_USERDATA, label="filter.read")
        charge_frontier_probe(wl, in_frontier, ids, REGION_FRONTIER_IN, "frontier.words")
    _charge_frontier_write(wl, out_frontier, written, wg_size)
    return wl


def _inplace_effect(frontier: Frontier, functor):
    ids = frontier.active_elements()
    if ids.size:
        keep = as_mask(functor(ids), ids.size, "filter")
        dropped = ids[~keep]
        if dropped.size:
            frontier.remove(dropped)
    else:
        dropped = np.empty(0, dtype=np.int64)
    return ids, dropped


def _external_effect(in_frontier: Frontier, out_frontier: Frontier, functor):
    ids = in_frontier.active_elements()
    out_frontier.clear()
    if ids.size:
        keep = as_mask(functor(ids), ids.size, "filter")
        passed = ids[keep]
        if passed.size:
            out_frontier.insert(passed)
    else:
        passed = np.empty(0, dtype=np.int64)
    return ids, passed


def inplace(graph, frontier: Frontier, functor) -> Event:
    """Remove elements for which ``functor(ids)`` is False (Table 2)."""
    queue = graph.queue
    with queue.span("filter.inplace"):
        ids, dropped = _inplace_effect(frontier, functor)
        return queue.submit(
            _filter_workload(queue, "filter.inplace", frontier, ids, frontier, dropped)
        )


def inplace_workload(graph, frontier: Frontier, functor) -> KernelWorkload:
    """:func:`inplace` minus the submit (fusion seam)."""
    queue = graph.queue
    with queue.span("filter.inplace"):
        ids, dropped = _inplace_effect(frontier, functor)
        return _filter_workload(queue, "filter.inplace", frontier, ids, frontier, dropped)


def external(graph, in_frontier: Frontier, out_frontier: Frontier, functor) -> Event:
    """Copy elements passing ``functor`` from ``in`` into ``out`` (Table 2).

    ``out`` is cleared first, matching the C++ semantics of producing a
    fresh frontier.
    """
    queue = graph.queue
    with queue.span("filter.external"):
        ids, passed = _external_effect(in_frontier, out_frontier, functor)
        return queue.submit(
            _filter_workload(queue, "filter.external", in_frontier, ids, out_frontier, passed)
        )


def external_workload(
    graph, in_frontier: Frontier, out_frontier: Frontier, functor
) -> KernelWorkload:
    """:func:`external` minus the submit (fusion seam)."""
    queue = graph.queue
    with queue.span("filter.external"):
        ids, passed = _external_effect(in_frontier, out_frontier, functor)
        return _filter_workload(queue, "filter.external", in_frontier, ids, out_frontier, passed)
