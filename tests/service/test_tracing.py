"""End-to-end trace propagation through the serving stack.

The ISSUE-7 acceptance criteria, as tests:

* one merged Perfetto export chains admission -> dispatch -> algorithm
  -> kernel under a single ``trace_id``, with flow events linking retry
  attempts across workers;
* a histogram ``p99`` exemplar resolves to the exact trace that produced
  it;
* with tracing / histograms / flight disabled the timeline is
  bit-identical to an instrumented run of the same workload;
* an injected spot-check failure auto-writes a flight dump containing
  the failing request's events.
"""

import json

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultRule
from repro.service.dispatch import default_registry
from repro.service.request import Request, RequestStatus, make_trace_id
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.traceexport import export_service_trace, service_trace_events
from repro.service.workload import WorkloadConfig, generate_workload
from tests.service.conftest import build_graph_caches, burst


def _run(tiny_catalog, workload, **config_kw):
    scheduler = QueryScheduler(
        pool=("v100s", "mi100"),
        catalog=tiny_catalog,
        config=SchedulerConfig(**config_kw),
    )
    return scheduler.run(workload)


def _small_trace(tiny_catalog, n=30, seed=7):
    return generate_workload(
        tiny_catalog, WorkloadConfig(n_requests=n, mean_interarrival_ns=2_000.0), seed=seed
    )


def _launch_faults(probability=1.0, count=1):
    return FaultInjector([FaultRule("kernel_launch", probability=probability, count=count)])


# --------------------------------------------------------------------- #
# trace-context propagation                                             #
# --------------------------------------------------------------------- #
def test_every_request_and_record_carries_a_trace_id(tiny_catalog):
    workload = _small_trace(tiny_catalog)
    assert all(r.trace_id == make_trace_id(7, r.req_id) for r in workload)
    report = _run(tiny_catalog, workload)
    assert all(len(rec.trace_id) == 16 for rec in report.records)
    assert len({rec.trace_id for rec in report.records}) == len(report.records)


def test_hand_built_requests_get_trace_ids_at_admission(tiny_catalog):
    report = _run(tiny_catalog, burst(3))
    assert all(rec.trace_id == make_trace_id(0, rec.req_id) for rec in report.records)


def test_one_export_chains_lifecycle_under_one_trace_id(tiny_catalog, tmp_path):
    report = _run(tiny_catalog, _small_trace(tiny_catalog), trace=True)
    path = export_service_trace(report, tmp_path / "svc.json")
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]

    rec = report.completed()[0]
    tid = rec.trace_id
    mine = [e for e in events if e.get("args", {}).get("trace_id") == tid]
    cats = {(e.get("cat"), e["ph"]) for e in mine}
    # scheduler side: request slice, admission instant, dispatch slice
    assert ("request", "X") in cats
    assert ("lifecycle", "i") in cats
    assert ("dispatch", "X") in cats
    # worker side: the attempt's service.request/service.dispatch spans
    worker_spans = [e for e in mine if e.get("cat") == "span" and e["ph"] == "B"]
    assert any(e["name"].startswith("service.request") for e in worker_spans)
    worker_pid = worker_spans[0]["pid"]
    assert worker_pid >= 2  # workers live in their own process groups
    # the algorithm span and its kernels nest on the same worker track,
    # between the service.request B and its E
    track = [
        e for e in events
        if e.get("pid") == worker_pid and e.get("tid") == worker_spans[0]["tid"]
    ]
    req_label = next(
        e["name"] for e in worker_spans if e["name"].startswith("service.request")
    )
    begin = next(i for i, e in enumerate(track) if e["ph"] == "B" and e["name"] == req_label)
    end = next(i for i, e in enumerate(track) if e["ph"] == "E" and e["name"] == req_label)
    inside = track[begin + 1 : end]
    assert any(
        e["ph"] == "B" and e["name"].startswith(rec.algorithm) for e in inside
    ), "algorithm span must nest inside the request span"
    assert any(e.get("cat") == "kernel" for e in inside), "kernels must nest inside"
    # flow arrows: start on the scheduler's request track, step on the worker
    flows = [e for e in events if e.get("cat") == "flow" and e["id"] == int(tid[:8], 16)]
    assert [e["ph"] for e in flows][0] == "s"
    assert [e["ph"] for e in flows][-1] == "f"
    assert any(e["ph"] == "t" and e["pid"] == worker_pid for e in flows)
    # process metadata names both sides
    names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
    assert "scheduler" in names
    assert any(n.startswith("worker") for n in names)


def test_retry_attempts_are_linked_by_flow_events(tiny_catalog, tmp_path):
    # one request whose first attempt faults: two dispatches, one trace
    scheduler = QueryScheduler(
        pool=("v100s", "mi100"),
        catalog=tiny_catalog,
        config=SchedulerConfig(trace=True, fault_injector=_launch_faults()),
    )
    # the fault must land in the algorithm, inside the first attempt's
    # span, not in the graph build before it
    build_graph_caches(scheduler)
    report = scheduler.run(burst(1))
    rec = report.records[0]
    assert rec.status is RequestStatus.COMPLETED
    assert rec.attempts == 2
    events = service_trace_events(report)
    dispatches = [
        e for e in events
        if e.get("cat") == "dispatch" and e["args"]["trace_id"] == rec.trace_id
    ]
    assert [e["args"]["attempt"] for e in dispatches] == [1, 2]
    assert dispatches[0]["args"]["error"]  # first attempt carries the fault
    retries = [e for e in events if e.get("cat") == "lifecycle" and e["name"] == "retry"]
    assert len(retries) == 1
    flows = [e for e in events if e.get("cat") == "flow"]
    steps = [e for e in flows if e["ph"] == "t"]
    assert len(steps) == 2, "each attempt gets its own flow step"


def test_export_requires_a_traced_report(tiny_catalog):
    report = _run(tiny_catalog, burst(2))
    with pytest.raises(ValueError, match="without tracing"):
        service_trace_events(report)


# --------------------------------------------------------------------- #
# histograms + exemplars                                                #
# --------------------------------------------------------------------- #
def test_latency_histograms_with_resolving_exemplars(tiny_catalog):
    workload = _small_trace(tiny_catalog)
    report = _run(tiny_catalog, workload, histograms=True)
    names = {h.name for h in report.metrics.histograms()}
    assert {"service.latency", "service.queue_wait"} <= names
    completed = report.completed()
    assert any(f"service.latency.{r.algorithm}" in names for r in completed)

    lat = report.metrics.histogram("service.latency")
    assert lat.count == len(completed)
    by_trace = {r.trace_id: r for r in completed}
    ex = lat.quantile_exemplar(99.0)
    assert ex.trace_id in by_trace  # the p99 links to an exact request
    assert by_trace[ex.trace_id].latency_ns == ex.value
    # histogram quantiles agree with the report's own latency lists
    from repro.bench.reporting import percentile

    all_lat = [r.latency_ns for r in completed]
    assert lat.quantile(99.0) == percentile(all_lat, 99)


def test_histograms_off_records_nothing(tiny_catalog):
    report = _run(tiny_catalog, _small_trace(tiny_catalog))
    assert report.metrics.histograms() == []


# --------------------------------------------------------------------- #
# zero-cost: instrumentation must not move modeled time                 #
# --------------------------------------------------------------------- #
def test_timeline_identical_with_and_without_instrumentation(tiny_catalog, tmp_path):
    plain = _run(
        tiny_catalog, _small_trace(tiny_catalog),
        fault_injector=_launch_faults(0.01, count=5),
    )
    instrumented = _run(
        tiny_catalog,
        _small_trace(tiny_catalog),  # fresh Request objects
        fault_injector=_launch_faults(0.01, count=5),
        trace=True,
        histograms=True,
        flight_capacity=64,
        flight_path=str(tmp_path / "fl.json"),
    )
    assert plain.metrics.value("service.retried") > 0
    assert plain.timeline() == instrumented.timeline()
    assert plain.makespan_ns == instrumented.makespan_ns


# --------------------------------------------------------------------- #
# flight recorder                                                       #
# --------------------------------------------------------------------- #
def _wrong_bfs(bundle, req):
    from repro.algorithms import bfs

    out = np.array(
        bfs(bundle.get("csr"), req.source, layout=req.layout, bits=req.bits).distances,
        copy=True,
    )
    out[0] += 1.0  # sabotage: served result diverges from the oracle
    return out


def test_spot_check_failure_writes_flight_dump(tiny_catalog, tmp_path):
    registry = default_registry()
    registry.register("bfs", _wrong_bfs)
    dump_path = tmp_path / "flight.json"
    scheduler = QueryScheduler(
        pool=("v100s",),
        catalog=tiny_catalog,
        config=SchedulerConfig(
            spot_check_every=1,
            flight_capacity=64,
            flight_path=str(dump_path),
        ),
        registry=registry,
    )
    report = scheduler.run(burst(2))
    failed = report.by_status(RequestStatus.FAILED)
    assert failed, "sabotaged bfs must fail its spot-check"
    assert report.flight_dump_path == str(dump_path)
    dump = json.loads(dump_path.read_text())
    assert "FAILED" in dump["reason"]
    assert dump["meta"]["req_id"] == failed[0].req_id
    assert dump["meta"]["trace_id"] == failed[0].trace_id
    # the ring holds the failing request's lifecycle: admit, dispatch,
    # the failing spot-check verdict, and the finish
    mine = [e for e in dump["events"] if e.get("req_id") == failed[0].req_id]
    kinds = [e["kind"] for e in mine]
    assert "admit" in kinds and "dispatch" in kinds and "finish" in kinds
    verdicts = [e for e in mine if e["kind"] == "spot_check"]
    assert verdicts and verdicts[0]["ok"] is False


def test_unhandled_exception_dumps_flight(tiny_catalog, tmp_path):
    def _boom(bundle, req):
        raise RuntimeError("kaboom")

    registry = default_registry()
    registry.register("bfs", _boom)
    dump_path = tmp_path / "crash.json"
    scheduler = QueryScheduler(
        pool=("v100s",),
        catalog=tiny_catalog,
        config=SchedulerConfig(flight_capacity=16, flight_path=str(dump_path)),
        registry=registry,
    )
    with pytest.raises(RuntimeError, match="kaboom"):
        scheduler.run(burst(1))
    dump = json.loads(dump_path.read_text())
    assert "unhandled exception" in dump["reason"]
    assert dump["events"][-1]["kind"] == "exception"
    assert "kaboom" in dump["events"][-1]["error"]


def test_flight_disabled_by_default(tiny_catalog):
    report = _run(tiny_catalog, burst(2))
    assert report.flight is None
    assert report.flight_dump_path is None
