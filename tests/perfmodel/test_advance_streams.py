"""Real kernels price as the frozen reference does.

BFS, SSSP and PageRank run on a small weighted R-MAT graph on a queue
that keeps every kernel it receives.  Each stream is copied at
submit, because operators reuse their arrays, and each array object once
per kernel, so a kernel that reads ``col_idx`` and ``weights`` at one
``eid`` array still reads one array twice.  Every kept kernel must cost
what :func:`reference_charge` of ``test_bit_identity.py`` gives, priced
alone and as one batch, on a device with 128-byte lines (V100S) and one
with 64-byte lines (MI100).

Hypothesis draws streams; these are the streams the operators make:
sorted edge ids shared by two streams, unsorted ``dst`` reads over a few
lines, the 2LB's offsets kernels, short and long streams, and L2 streams
long enough to overflow the scaled L2, where a repeat across a stream
boundary changes the hit count.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.graph.builder import GraphBuilder
from repro.graph.generators import rmat
from repro.perfmodel.cache import MARK_SPAN_BASE, MARK_SPAN_PER_ACCESS
from repro.perfmodel.cost import LARGE_STREAM, SHORT_STREAM
from repro.perfmodel.scaling import CACHE_SCALE
from repro.sycl.queue import Queue
from tests.perfmodel.test_bit_identity import DEVICES, assert_same_cost, reference_charge


class RecordingQueue(Queue):
    """A queue that keeps a copy of every kernel it receives."""

    def __init__(self, device):
        super().__init__(device)
        self.kernels = []

    def submit(self, workload):
        copies = {}
        streams = []
        for s in workload.streams:
            if id(s.addresses) not in copies:
                copies[id(s.addresses)] = s.addresses.copy()
            streams.append(s._replace(addresses=copies[id(s.addresses)]))
        self.kernels.append(replace(workload, streams=streams))
        return super().submit(workload)


@pytest.fixture(scope="module", params=sorted(DEVICES))
def recorded(request):
    """The cost model and every kernel of one BFS, SSSP and PageRank run
    from the highest-degree vertex."""
    queue = RecordingQueue(DEVICES[request.param]())
    graph = GraphBuilder(queue).to_csr(rmat(9, 16, seed=1, weighted=True))
    source = int(np.argmax(np.diff(graph.row_ptr)))
    bfs(graph, source)
    sssp(graph, source)
    pagerank(graph, max_iterations=4)
    return queue.cost_model, queue.kernels


def test_the_kernels_cover_the_pricing_branches(recorded):
    model, kernels = recorded
    line = model.spec.l1_line_bytes
    streams = [s for wl in kernels for s in wl.streams]
    sizes = [s.addresses.size for s in streams]
    assert min(sizes) <= SHORT_STREAM < LARGE_STREAM < max(sizes)
    assert any(wl.name.endswith(".offsets") for wl in kernels)
    # an array object read by two streams of one kernel
    assert any(
        len({id(s.addresses) for s in wl.streams}) < len(wl.streams) for wl in kernels
    )
    # unsorted reads whose lines from line 0 up are few enough to mark
    reads = [s for s in streams if s.label == "functor.read" and s.addresses.size > SHORT_STREAM]
    assert any(
        (np.diff(s.addresses) < 0).any()
        and int(s.addresses.max()) * s.item_bytes // line < MARK_SPAN_PER_ACCESS * s.addresses.size + MARK_SPAN_BASE
        for s in reads
    )
    # more L2 misses than the scaled L2 holds lines: the working set
    # overflows it, so one repeat more or less changes the hit count
    l2_lines = max(line * 16, int(model.spec.l2_bytes * CACHE_SCALE)) // line
    assert any(reference_charge(model, wl).l2.misses > l2_lines for wl in kernels)


def test_every_kernel_prices_as_the_reference(recorded):
    model, kernels = recorded
    references = [reference_charge(model, wl) for wl in kernels]
    for wl, ref in zip(kernels, references):
        assert_same_cost(model.charge(wl), ref)
    for cost, ref in zip(model.charge_many(kernels), references):
        assert_same_cost(cost, ref)
