"""Trace-export golden tests: tree shape, not timestamps."""

import json

from repro.algorithms.bfs import bfs
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.obs import export_trace, trace_events


def _traced_bfs(queue, layout="2lb"):
    coo = gen.erdos_renyi(200, 4.0, seed=5)
    graph = GraphBuilder(queue).to_csr(coo)
    tracer = queue.enable_tracing()
    result = bfs(graph, 0, layout=layout)
    return tracer, result


def test_span_events_balance_and_nest(queue):
    tracer, result = _traced_bfs(queue)
    events = trace_events(tracer)
    # every B has a matching E per track, strictly LIFO (proper nesting)
    stacks = {}
    max_depth = 0
    for ev in events:
        if ev["ph"] == "B":
            stacks.setdefault(ev["tid"], []).append(ev["name"])
            max_depth = max(max_depth, len(stacks[ev["tid"]]))
        elif ev["ph"] == "E":
            assert stacks[ev["tid"]], f"E without open B on {ev['tid']}"
            assert stacks[ev["tid"]].pop() == ev["name"]
    assert all(not s for s in stacks.values()), "unclosed span events"
    # algorithm > iteration > operator: at least three levels deep
    assert max_depth >= 3


def test_trace_tree_shape_for_bfs(queue):
    tracer, result = _traced_bfs(queue)
    events = trace_events(tracer)
    begins = [e for e in events if e["ph"] == "B"]
    iter_begins = [e for e in begins if e["name"].startswith("bfs.iter#")]
    assert len(iter_begins) == result.iterations
    # iteration spans carry their kernel totals and frontier gauges
    for ev in iter_begins:
        assert ev["args"]["kernels"] > 0
        assert "frontier.size" in ev["args"]
    # kernels are X events nested on the same track as the algorithm span
    xs = [e for e in events if e["ph"] == "X"]
    assert xs and all(e["tid"] == "bfs#0" for e in xs)
    assert {e["name"] for e in xs} >= {"advance.frontier", "compute.execute"}


def test_counter_tracks_present(queue):
    tracer, _ = _traced_bfs(queue)
    events = trace_events(tracer)
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert "frontier.size" in counters
    assert "frontier.occupancy" in counters
    assert "memory.bytes_in_use" in counters
    assert "frontier.scan_hits" in counters
    # counter events carry their value in args keyed by metric name
    sample = next(e for e in events if e["ph"] == "C" and e["name"] == "frontier.size")
    assert sample["args"]["frontier.size"] >= 1.0


def test_counter_timestamps_monotone(queue):
    tracer, _ = _traced_bfs(queue)
    events = trace_events(tracer)
    for name in ("frontier.size", "memory.bytes_in_use"):
        ts = [e["ts"] for e in events if e["ph"] == "C" and e["name"] == name]
        assert ts == sorted(ts)


def test_export_trace_file_payload(queue, tmp_path):
    tracer, result = _traced_bfs(queue)
    path = export_trace(tracer, tmp_path / "bfs.json", queue=queue)
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    other = payload["otherData"]
    assert other["modeled_ns"] == queue.elapsed_ns
    assert other["device"] == queue.device.name
    assert other["spans"] >= result.iterations
    assert other["memory_peak_bytes"] > 0
    assert payload["traceEvents"]


def test_zero_ts_counter_samples_get_monotonic_fallback(queue):
    # regression: counters recorded without a timestamp (default ts_ns=0.0)
    # used to collapse onto t=0 in the export, rendering as one spike
    tracer = queue.enable_tracing()
    for value in (1.0, 2.0, 3.0):
        tracer.metrics.inc("untimestamped", 1.0)  # default ts_ns=0.0
    events = trace_events(tracer)
    ts = [e["ts"] for e in events if e["ph"] == "C" and e["name"] == "untimestamped"]
    assert len(ts) == 3
    assert ts[0] == 0.0  # a genuine t=0 sample can only be the first
    assert ts == sorted(ts) and len(set(ts)) == 3, "series must not collapse"


def test_ts_fallback_preserves_real_timestamps(queue):
    tracer = queue.enable_tracing()
    tracer.metrics.gauge("g", 1.0, ts_ns=5000.0)
    tracer.metrics.gauge("g", 2.0)  # missing clock, falls back
    tracer.metrics.gauge("g", 3.0, ts_ns=9000.0)
    events = trace_events(tracer)
    ts = [e["ts"] for e in events if e["ph"] == "C" and e["name"] == "g"]
    assert ts[0] == 5.0 and ts[2] == 9.0  # real stamps emitted verbatim
    assert ts[0] < ts[1] < ts[2]


def test_span_attrs_exported_in_args(queue):
    tracer = queue.enable_tracing()
    with queue.span("outer", 1, attrs={"trace_id": "abcd", "attempt": 2}):
        pass
    events = trace_events(tracer)
    begin = next(e for e in events if e["ph"] == "B" and e["name"] == "outer#1")
    assert begin["args"]["trace_id"] == "abcd"
    assert begin["args"]["attempt"] == 2


def test_trace_events_pid_and_single_track_mode(queue):
    tracer, _ = _traced_bfs(queue)
    events = trace_events(tracer, pid=7, track="workerX")
    assert all(e["pid"] == 7 for e in events)
    span_tids = {e["tid"] for e in events if e.get("cat") in ("span", "kernel")}
    assert span_tids <= {"workerX", "workerX/queue"}
