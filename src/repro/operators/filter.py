"""The *filter* primitive (paper Table 2).

``filter.inplace(G, frontier, functor)`` drops elements failing the
functor; ``filter.external(G, in, out, functor)`` copies passing elements
into a second frontier.  Like compute, filter launches with a plain
``range`` — one workitem per active element, no load-balancing machinery.

Frontier traffic is charged at each frontier's actual storage
(:meth:`~repro.frontier.base.Frontier.storage`): bitmap-family frontiers
stream their ``bits``-wide words, the boolmap streams bytes, the vector
streams slots — and only bitmap-family writes pay word-level atomics.
"""

from __future__ import annotations

import numpy as np

from repro.frontier.base import Frontier
from repro.frontier.bitmap import BitmapFrontier
from repro.frontier.vector import VectorFrontier
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
from repro.sycl.ndrange import range_launch, range_workgroup_size


def _charge_frontier_write(
    wl: KernelWorkload, frontier: Frontier, ids: np.ndarray, wg_size: int
) -> None:
    """Charge the filter's writes into ``frontier`` for ``ids``."""
    if ids.size == 0:
        return
    addresses, item_bytes = frontier.storage(ids)
    wl.add_stream(addresses, item_bytes, REGION_FRONTIER_OUT, is_write=True, label="filter.write")
    if isinstance(frontier, BitmapFrontier):
        # word-level read-modify-write per element, contended per word
        wl.atomics += int(ids.size)
        wl.atomic_targets += count_distinct(addresses)
    elif isinstance(frontier, VectorFrontier):
        # vector append: coalesced tail writes + one tail bump per
        # (simulated) workgroup flush; the boolmap's idempotent byte
        # stores need no atomics
        wl.atomics += max(1, int(ids.size) // max(1, wg_size))
        wl.atomic_targets += 1


def _filter_workload(
    queue, name: str, in_frontier: Frontier, ids: np.ndarray,
    out_frontier: Frontier, written: np.ndarray,
) -> KernelWorkload:
    """Characterize the filter's range launch (no submit)."""
    if not queue.enable_profiling:
        return null_workload(name)
    spec = queue.device.spec
    wl = KernelWorkload(
        name=name,
        geometry=range_launch(spec, ids.size),
        active_lanes=int(ids.size),
        instructions_per_lane=6.0,
    )
    if ids.size:
        wl.add_stream(ids, 8, REGION_USERDATA, label="filter.read")
        charge_frontier_probe(wl, in_frontier, ids, REGION_FRONTIER_IN, "frontier.words")
    _charge_frontier_write(wl, out_frontier, written, range_workgroup_size(spec))
    return wl


def inplace(graph, frontier: Frontier, functor) -> Event:
    """Remove elements for which ``functor(ids)`` is False (Table 2)."""
    queue = graph.queue
    with queue.span("filter.inplace"):
        return queue.submit(inplace_workload(graph, frontier, functor))


def inplace_workload(graph, frontier: Frontier, functor) -> KernelWorkload:
    """:func:`inplace` minus its span and its submit."""
    ids = frontier.active_elements()
    if ids.size:
        keep = as_mask(functor(ids), ids.size, "filter")
        dropped = ids[~keep]
        if dropped.size:
            frontier.remove(dropped)
    else:
        dropped = np.empty(0, dtype=np.int64)
    return _filter_workload(graph.queue, "filter.inplace", frontier, ids, frontier, dropped)


def external(graph, in_frontier: Frontier, out_frontier: Frontier, functor) -> Event:
    """Copy elements passing ``functor`` from ``in`` into ``out`` (Table 2).

    ``out`` is cleared first, matching the C++ semantics of producing a
    fresh frontier.
    """
    queue = graph.queue
    with queue.span("filter.external"):
        return queue.submit(external_workload(graph, in_frontier, out_frontier, functor))


def external_workload(
    graph, in_frontier: Frontier, out_frontier: Frontier, functor
) -> KernelWorkload:
    """:func:`external` minus its span and its submit."""
    ids = in_frontier.active_elements()
    out_frontier.clear()
    if ids.size:
        keep = as_mask(functor(ids), ids.size, "filter")
        passed = ids[keep]
        if passed.size:
            out_frontier.insert(passed)
    else:
        passed = np.empty(0, dtype=np.int64)
    return _filter_workload(graph.queue, "filter.external", in_frontier, ids, out_frontier, passed)
