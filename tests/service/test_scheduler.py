"""Scheduler policy: admission, batching, priorities, retries, deadlines,
overlap accounting and the makespan-vs-serialized contract."""

import pytest

from repro.faults import FaultInjector, FaultRule
from repro.service.dispatch import default_registry
from repro.service.request import Request, RequestStatus
from repro.service.scheduler import QueryScheduler, SchedulerConfig

from tests.service.conftest import burst


def sched(pool=("v100s",), catalog=None, **cfg):
    return QueryScheduler(pool=pool, catalog=catalog, config=SchedulerConfig(**cfg))


def launch_faults(count):
    """Injector failing the first ``count`` kernel launches (None = all)."""
    return FaultInjector([FaultRule("kernel_launch", count=count)])


class TestBasicServing:
    def test_drains_everything_exactly_once(self, tiny_catalog, contended_trace):
        s = sched(pool=("v100s", "v100s", "mi100"), catalog=tiny_catalog)
        report = s.run(contended_trace)
        assert len(report.records) == len(contended_trace)
        assert len(report.completed()) == len(contended_trace)
        assert report.metrics.value("service.admitted") == len(contended_trace)
        assert report.metrics.value("service.completed") == len(contended_trace)

    def test_record_invariants(self, tiny_catalog, contended_trace):
        report = sched(pool=("v100s", "mi100"), catalog=tiny_catalog).run(contended_trace)
        for r in report.completed():
            assert r.start_ns >= r.arrival_ns
            assert r.finish_ns >= r.start_ns
            assert r.service_ns > 0
            assert r.worker in (0, 1)
            assert r.latency_ns >= r.service_ns * 0.69  # overlap floor

    def test_unknown_graph_is_a_hard_error(self, tiny_catalog):
        s = sched(catalog=tiny_catalog)
        with pytest.raises(KeyError, match="unknown graph"):
            s.run([Request(req_id=0, algorithm="bfs", graph="nope")])

    def test_unknown_algorithm_fails_without_retry(self, tiny_catalog):
        s = sched(catalog=tiny_catalog)
        report = s.run([Request(req_id=0, algorithm="quantum", graph="rmat")])
        (rec,) = report.records
        assert rec.status is RequestStatus.FAILED
        assert rec.attempts == 1  # permanent: no retry burned
        assert "no runner" in rec.reason


class TestPriorities:
    def test_high_priority_dispatched_first(self, tiny_catalog):
        """Simultaneous arrivals on one worker: completion order follows
        priority, not submission order."""
        trace = []
        for i, prio in enumerate([2, 1, 0, 2, 0]):
            trace.append(
                Request(req_id=i, algorithm="bfs", graph="rmat", source=0,
                        priority=prio, arrival_ns=0.0)
            )
        report = sched(catalog=tiny_catalog, max_batch=1).run(trace)
        order = [t[0] for t in report.timeline()]
        priorities = {r.req_id: r.priority for r in trace}
        assert [priorities[i] for i in order] == sorted(priorities.values())

    def test_latency_ordering_under_contention(self, tiny_catalog, contended_trace):
        report = sched(pool=("v100s",), catalog=tiny_catalog).run(contended_trace)
        lat = report.latencies_by_priority()
        mean = lambda v: sum(v) / len(v)
        assert mean(lat[0]) < mean(lat[2])


class TestAdmissionControl:
    def test_queue_full_rejects(self, tiny_catalog):
        trace = burst(20)
        report = sched(catalog=tiny_catalog, max_queue_depth=4, max_batch=1).run(trace)
        rejected = report.by_status(RequestStatus.REJECTED)
        assert rejected and report.metrics.value("service.rejected") == len(rejected)
        assert len(report.completed()) + len(rejected) == 20

    def test_high_priority_sheds_low(self, tiny_catalog):
        """A full queue of low-priority work makes room for high priority."""
        low = burst(8, priority=2)
        high = [
            Request(req_id=100 + i, algorithm="bfs", graph="rmat",
                    priority=0, arrival_ns=1.0)
            for i in range(4)
        ]
        report = sched(
            catalog=tiny_catalog, max_queue_depth=4, max_batch=1
        ).run(low + high)
        shed = report.by_status(RequestStatus.SHED)
        assert shed and all(r.priority == 2 for r in shed)
        # every high-priority request survived admission and completed
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in report.records
            if r.priority == 0
        )


class TestBatching:
    def test_same_graph_requests_batch(self, tiny_catalog):
        report = sched(catalog=tiny_catalog, max_batch=4).run(burst(8))
        assert report.metrics.value("service.batched_requests") > 0
        assert report.metrics.value("service.batches") < 8
        batch_ids = {}
        for r in report.completed():
            batch_ids.setdefault((r.worker, r.batch_id), []).append(r.req_id)
        assert max(len(v) for v in batch_ids.values()) > 1
        assert all(len(v) <= 4 for v in batch_ids.values())

    def test_mixed_keys_do_not_batch(self, tiny_catalog):
        trace = burst(3, algorithm="bfs") + [
            Request(req_id=10, algorithm="cc", graph="rmat", arrival_ns=0.0),
            Request(req_id=11, algorithm="bfs", graph="road", arrival_ns=0.0),
        ]
        report = sched(catalog=tiny_catalog, max_batch=8).run(trace)
        by_batch = {}
        for r in report.completed():
            by_batch.setdefault((r.worker, r.batch_id), []).append(r)
        for members in by_batch.values():
            keys = {(m.graph, m.algorithm) for m in members}
            assert len(keys) == 1


class TestRetries:
    def test_transient_fault_retries_then_completes(self, tiny_catalog):
        trace = [Request(req_id=0, algorithm="bfs", graph="rmat")]
        report = sched(catalog=tiny_catalog, fault_injector=launch_faults(1)).run(trace)
        (rec,) = report.records
        assert rec.status is RequestStatus.COMPLETED
        assert rec.attempts == 2
        assert report.metrics.value("service.retried") == 1

    def test_backoff_is_exponential(self, tiny_catalog):
        trace = [Request(req_id=0, algorithm="bfs", graph="rmat")]
        s = sched(
            catalog=tiny_catalog, backoff_ns=1000.0, max_retries=3,
            fault_injector=launch_faults(2),
        )
        report = s.run(trace)
        (rec,) = report.records
        assert rec.status is RequestStatus.COMPLETED
        assert rec.attempts == 3
        # two faults: backoffs 1000 + 2000 plus two fault service slots
        assert rec.finish_ns > 3000.0

    def test_exhausted_retries_fail(self, tiny_catalog):
        trace = [Request(req_id=0, algorithm="bfs", graph="rmat")]
        report = sched(
            catalog=tiny_catalog, max_retries=2, fault_injector=launch_faults(None)
        ).run(trace)
        (rec,) = report.records
        assert rec.status is RequestStatus.FAILED
        assert rec.attempts == 3  # 1 try + 2 retries
        assert rec.reason.startswith("kernel-launch-fault: failed after 3 attempts")
        assert report.metrics.value("service.failed") == 1
        assert report.metrics.value("service.retried") == 2


class TestDeadlines:
    def test_queued_past_deadline_times_out_unexecuted(self, tiny_catalog):
        # one worker, long burst: tail requests blow a tight deadline
        trace = burst(30, timeout_ns=5_000.0)
        report = sched(catalog=tiny_catalog, max_batch=1).run(trace)
        timed_out = report.by_status(RequestStatus.TIMED_OUT)
        assert timed_out
        assert report.metrics.value("service.timed_out") == len(timed_out)
        unexecuted = [r for r in timed_out if r.start_ns < 0]
        assert unexecuted, "expected queue-side deadline drops"

    def test_no_deadline_never_times_out(self, tiny_catalog):
        report = sched(catalog=tiny_catalog).run(burst(30))
        assert not report.by_status(RequestStatus.TIMED_OUT)

    def test_per_priority_default_timeouts(self, tiny_catalog):
        trace = burst(10, priority=2) + [
            Request(req_id=50, algorithm="bfs", graph="rmat", priority=0, arrival_ns=0.0)
        ]
        report = sched(
            catalog=tiny_catalog, max_batch=1,
            timeout_ns=(None, None, 3_000.0),  # only 'low' has a deadline
        ).run(trace)
        assert all(r.priority == 2 for r in report.by_status(RequestStatus.TIMED_OUT))


class TestMakespan:
    def test_multi_device_beats_serialized(self, tiny_catalog, contended_trace):
        report = sched(
            pool=("v100s", "v100s", "mi100"), catalog=tiny_catalog
        ).run(contended_trace)
        assert report.makespan_ns < report.serialized_ns

    def test_single_queue_matches_serialized(self, tiny_catalog):
        """One worker IS the serialized baseline: same replay, same number."""
        trace = burst(12)
        report = sched(pool=("v100s",), catalog=tiny_catalog, max_batch=1).run(trace)
        assert report.makespan_ns == pytest.approx(report.serialized_ns)

    def test_same_device_pair_overlaps(self, tiny_catalog):
        trace = burst(12)
        solo = sched(pool=("v100s",), catalog=tiny_catalog, max_batch=1).run(trace)
        s = sched(pool=("v100s", "v100s"), catalog=tiny_catalog, max_batch=1)
        pair = s.run(burst(12))
        assert pair.makespan_ns < solo.makespan_ns

    def test_report_throughput_positive(self, tiny_catalog, contended_trace):
        report = sched(pool=("v100s", "mi100"), catalog=tiny_catalog).run(contended_trace)
        assert report.throughput_rps > 0


class TestMemoryHygiene:
    def test_live_bytes_return_to_graph_cache_baseline(self, tiny_catalog):
        s = sched(pool=("v100s", "mi100"), catalog=tiny_catalog)
        s.run(burst(10) + burst(5, graph="road", algorithm="sssp"))
        baseline = [w.queue.memory.bytes_in_use for w in s.workers]
        labels = {
            a.label
            for w in s.workers
            for a in w.queue.memory.live_allocations
        }
        # only graph buffers survive a drain — no request-scoped leaks
        assert all(("csr" in lab or "csc" in lab or "graph" in lab) for lab in labels), labels
        s.run(burst(10) + burst(5, graph="road", algorithm="sssp"))
        assert [w.queue.memory.bytes_in_use for w in s.workers] == baseline

    def test_memory_timelines_do_not_grow_with_requests_served(self, tiny_catalog):
        """Every attempt's memory events are dropped with its allocations:
        serving a trace twice leaves the workers' timelines no longer than
        serving it once."""
        s = sched(pool=("v100s", "mi100"), catalog=tiny_catalog)
        trace = burst(10) + burst(5, graph="road", algorithm="sssp") + burst(3, graph="web", algorithm="cc")
        s.run(trace)
        once = [len(w.queue.memory.timeline) for w in s.workers]
        for req in trace:
            req.attempts = 0  # reset scheduling state for the replay
        s.run(trace)
        assert all(len(w.queue.memory.timeline) <= n for w, n in zip(s.workers, once))

    def test_preparing_a_cached_graph_is_a_lookup(self, tiny_catalog, monkeypatch):
        """Once a worker holds a request's graphs, preparing the next
        request on them reads no allocation list."""
        s = sched(pool=("v100s",), catalog=tiny_catalog)
        worker = s.workers[0]
        bundle = worker.bundle_for(s.catalog["rmat"])
        req = burst(1, algorithm="dobfs")[0]
        s.registry.prepare(bundle, req)
        reads = []
        monkeypatch.setattr(
            type(worker.queue.memory), "live_allocations", property(lambda mm: reads.append(mm) or [])
        )
        s.registry.prepare(bundle, req)
        assert reads == []


class TestTracing:
    def test_request_spans_nest_dispatch_and_algorithm(self, tiny_catalog):
        s = QueryScheduler(
            pool=("v100s",), catalog=tiny_catalog, config=SchedulerConfig(trace=True)
        )
        s.run(burst(3))
        tracer = s.workers[0].queue.tracer
        req_spans = tracer.root.find("service.request")
        assert len(req_spans) == 3
        for span in req_spans:
            (dispatch,) = span.children
            assert dispatch.name == "service.dispatch"
            assert dispatch.find("bfs"), "algorithm span should nest under dispatch"

    def test_tracing_off_by_default(self, tiny_catalog):
        s = sched(catalog=tiny_catalog)
        s.run(burst(2))
        assert all(w.queue.tracer is None for w in s.workers)
