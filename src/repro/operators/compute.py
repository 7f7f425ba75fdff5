"""The *compute* primitive (paper Table 2).

``compute.execute(G, frontier, functor)`` applies the functor to every
active element.  It is "kept separate from the advance because it does not
present the same load balancing challenges" (§3.1): the launch is a plain
``range`` (global size only, Section 3.3) with one workitem per active
element, so global memory access is naturally coalesced.
"""

from __future__ import annotations

import numpy as np

from repro.frontier.base import Frontier
from repro.operators.advance import REGION_USERDATA
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.event import Event
from repro.sycl.ndrange import range_launch


def _apply_and_characterize(
    queue, name: str, ids: np.ndarray, functor, write_bytes: int, ipl: float
) -> KernelWorkload:
    """Apply ``functor(ids)`` and characterize the range launch (no submit)."""
    if ids.size:
        functor(ids)
    wl = KernelWorkload(
        name=name,
        geometry=range_launch(queue.device.spec, ids.size),
        active_lanes=int(ids.size),
        instructions_per_lane=ipl,
    )
    if ids.size:
        wl.add_stream(ids, write_bytes, REGION_USERDATA, is_write=True, label="compute.write")
    return wl


def execute(graph, frontier: Frontier, functor, write_bytes: int = 8) -> Event:
    """Apply ``functor(ids)`` to the frontier's active elements.

    The functor mutates user data in place (Listing 1 lines 14-17:
    ``dist[v] = iter + 1``); ``write_bytes`` sizes the per-element store
    for cost accounting.
    """
    queue = graph.queue
    with queue.span("compute.execute"):
        return queue.submit(execute_workload(graph, frontier, functor, write_bytes))


def execute_workload(graph, frontier: Frontier, functor, write_bytes: int = 8) -> KernelWorkload:
    """:func:`execute` minus its span and its submit: the functor runs
    now, the characterized workload is returned for the caller to submit
    or fold into a fused kernel."""
    ids = frontier.active_elements()
    return _apply_and_characterize(graph.queue, "compute.execute", ids, functor, write_bytes, 6.0)


def execute_all(graph, functor, write_bytes: int = 8) -> Event:
    """Apply ``functor`` to **every** vertex (initialization sweeps)."""
    queue = graph.queue
    with queue.span("compute.execute_all"):
        return queue.submit(execute_all_workload(graph, functor, write_bytes))


def execute_all_workload(graph, functor, write_bytes: int = 8) -> KernelWorkload:
    """:func:`execute_all` minus its span and its submit."""
    ids = np.arange(graph.get_vertex_count(), dtype=np.int64)
    return _apply_and_characterize(graph.queue, "compute.execute_all", ids, functor, write_bytes, 4.0)
