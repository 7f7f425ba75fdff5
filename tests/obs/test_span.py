"""Span nesting, kernel attribution, and the modeled-time cursor."""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.obs import SpanTracer, iteration_breakdown
from repro.perfmodel.cost import KernelWorkload
from repro.sycl.ndrange import range_launch


def _submit_one(queue, name="k"):
    geom = range_launch(queue.device.spec, 128)
    return queue.submit(
        KernelWorkload(name=name, geometry=geom, active_lanes=128, instructions_per_lane=4.0)
    )


def test_nested_spans_record_tree(queue):
    tracer = queue.enable_tracing()
    with queue.span("algo", 0):
        with queue.span("algo.iter", 0):
            _submit_one(queue, "a")
        with queue.span("algo.iter", 1):
            _submit_one(queue, "b")
            _submit_one(queue, "c")
    top = tracer.root.children[0]
    assert top.label == "algo#0"
    assert [c.label for c in top.children] == ["algo.iter#0", "algo.iter#1"]
    assert [k.name for k in top.children[0].kernels] == ["a"]
    assert [k.name for k in top.children[1].kernels] == ["b", "c"]
    assert top.kernel_count() == 3
    assert top.kernels == []  # kernels land on the innermost span


def test_kernel_time_attribution_sums_to_elapsed(queue):
    tracer = queue.enable_tracing()
    with queue.span("outer"):
        _submit_one(queue)
        with queue.span("inner"):
            _submit_one(queue)
    outer = tracer.root.children[0]
    assert outer.kernel_ns(recursive=True) == pytest.approx(queue.elapsed_ns)
    assert outer.kernel_ns(recursive=False) < outer.kernel_ns(recursive=True)
    assert tracer.cursor_ns == pytest.approx(queue.elapsed_ns)
    # span boundaries lie on the modeled timeline
    assert outer.start_ns == 0.0
    assert outer.end_ns == pytest.approx(queue.elapsed_ns)
    inner = outer.children[0]
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


def test_kernels_outside_spans_attach_to_root(queue):
    tracer = queue.enable_tracing()
    _submit_one(queue, "orphan")
    assert [k.name for k in tracer.root.kernels] == ["orphan"]


def test_span_without_tracer_is_noop(queue):
    with queue.span("anything", 42) as span:
        assert span is None
    assert queue.tracer is None


def test_disable_tracing_detaches(queue):
    queue.enable_tracing()
    queue.disable_tracing()
    assert queue.tracer is None
    assert queue.memory.observer is None
    with queue.span("x") as span:
        assert span is None


def test_bfs_has_one_span_per_iteration(queue):
    coo = gen.erdos_renyi(200, 4.0, seed=5)
    graph = GraphBuilder(queue).to_csr(coo)
    tracer = queue.enable_tracing()
    result = bfs(graph, 0)
    top = tracer.root.children[0]
    iters = top.find("bfs.iter")
    assert len(iters) == result.iterations
    assert [s.arg for s in iters] == list(range(result.iterations))
    for it in iters:
        # every iteration nests operator spans which hold the kernels
        assert it.children, f"iteration {it.label} has no operator spans"
        assert it.kernel_count() > 0
        assert {c.name for c in it.children} <= {"advance.frontier", "compute.execute"}
        assert "frontier.size" in it.gauges


def test_iteration_breakdown_rows(queue):
    coo = gen.erdos_renyi(150, 4.0, seed=9)
    graph = GraphBuilder(queue).to_csr(coo)
    tracer = queue.enable_tracing()
    result = bfs(graph, 0)
    rows = iteration_breakdown(tracer)
    assert len(rows) == result.iterations
    assert [r["iteration"] for r in rows] == list(range(result.iterations))
    starts = [r["start_ns"] for r in rows]
    assert starts == sorted(starts)
    assert all(r["kernels"] > 0 for r in rows)
    assert rows[0]["gauges"]["frontier.size"] == 1.0


def test_frontier_sampling_and_memory_hook(queue):
    coo = gen.erdos_renyi(100, 3.0, seed=2)
    graph = GraphBuilder(queue).to_csr(coo)
    tracer = queue.enable_tracing()
    bfs(graph, 0)
    _, sizes = tracer.metrics.get("frontier.size").series()
    assert sizes[0] == 1.0  # first frontier: the source alone
    assert tracer.memory_samples, "memory hook recorded no samples"
    assert tracer.memory_peak_bytes >= queue.memory.bytes_in_use
    # samples are on the modeled timeline, so timestamps never regress
    ts = [t for t, _ in tracer.memory_samples]
    assert ts == sorted(ts)


def test_scan_stats_deltas_per_span(queue):
    coo = gen.erdos_renyi(120, 4.0, seed=3)
    graph = GraphBuilder(queue).to_csr(coo)
    tracer = queue.enable_tracing()
    bfs(graph, 0)
    top = tracer.root.children[0]
    # the epoch memoization must serve at least one scan from cache per run
    assert top.scan_hits > 0
    # parent deltas cover their children's (same global counter window)
    for it in top.find("bfs.iter"):
        assert top.scan_hits >= it.scan_hits
        assert top.scan_misses >= it.scan_misses


def test_shared_tracer_across_queues():
    from repro.sycl import Queue, get_device

    q1 = Queue(get_device("v100s"), capacity_limit=0)
    q2 = Queue(get_device("v100s"), capacity_limit=0)
    tracer = SpanTracer()
    q1.enable_tracing(tracer)
    q2.enable_tracing(tracer)
    with q1.span("a"):
        _submit_one(q1)
        _submit_one(q2)
    assert tracer.root.children[0].kernel_count() == 2


def test_iteration_breakdown_none_tracer_returns_empty():
    # regression: callers holding queue.tracer (None when tracing is off)
    # could pass it straight through; that must not raise
    assert iteration_breakdown(None) == []


def test_iteration_breakdown_empty_tracer_returns_empty():
    assert iteration_breakdown(SpanTracer()) == []


def test_iteration_breakdown_tracer_without_iterations(queue):
    tracer = queue.enable_tracing()
    with queue.span("algo", 0):
        _submit_one(queue)
    assert iteration_breakdown(tracer) == []


def test_span_attrs_recorded_on_spans(queue):
    queue.enable_tracing()
    with queue.span("s", 0, attrs={"trace_id": "feed", "k": 1}) as span:
        assert span.attrs == {"trace_id": "feed", "k": 1}
    # attrs default to an independent dict per span
    with queue.span("s", 1) as other:
        assert other.attrs == {}
