"""Stress: ~500 mixed-priority requests over three device profiles in
strict mode — no cross-request leaks, no guard-canary violations, and
the pool never does worse than one serialized queue."""

import pytest

from repro.faults import FaultInjector, FaultRule
from repro.service.request import RequestStatus
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.workload import WorkloadConfig, default_catalog, generate_workload


@pytest.fixture(scope="module")
def stress_report_and_scheduler():
    catalog = default_catalog(seed=1, scale="tiny")
    trace = generate_workload(
        catalog,
        WorkloadConfig(
            n_requests=500,
            mean_interarrival_ns=1_500.0,
            timeout_ns=2_000_000.0,
        ),
        seed=1,
    )
    launch_faults = FaultInjector(
        [FaultRule("kernel_launch", probability=0.002, count=25)], seed=1
    )
    sched = QueryScheduler(
        pool=("v100s", "max1100", "mi100"),
        catalog=catalog,
        config=SchedulerConfig(
            strict=True, spot_check_every=25, max_queue_depth=128,
            fault_injector=launch_faults,
        ),
    )
    report = sched.run(trace)
    return report, sched, trace


class TestStress:
    def test_every_request_reaches_a_terminal_state(self, stress_report_and_scheduler):
        report, _, trace = stress_report_and_scheduler
        assert len(report.records) == len(trace) == 500
        statuses = {r.status for r in report.records}
        assert RequestStatus.COMPLETED in statuses
        counted = sum(len(report.by_status(s)) for s in RequestStatus)
        assert counted == 500

    def test_mixed_priorities_served(self, stress_report_and_scheduler):
        report, _, _ = stress_report_and_scheduler
        lat = report.latencies_by_priority()
        assert all(lat[p] for p in (0, 1, 2))

    def test_no_guard_canary_violations_after_drain(self, stress_report_and_scheduler):
        """Strict mode: every allocation was guarded and every free was
        canary-checked during the run; re-check whatever is still live."""
        _, sched, _ = stress_report_and_scheduler
        for w in sched.workers:
            w.queue.memory.check_canaries()  # raises InvariantViolation on corruption

    def test_live_bytes_return_to_baseline(self, stress_report_and_scheduler):
        """After the drain only the per-worker graph caches are resident:
        re-serving the same trace must not grow live bytes by one byte."""
        report, sched, trace = stress_report_and_scheduler
        baseline = [w.queue.memory.bytes_in_use for w in sched.workers]
        live = [len(w.queue.memory.live_allocations) for w in sched.workers]
        for req in trace:
            req.attempts = 0  # reset scheduling state for the replay
        report2 = sched.run(trace)
        assert [w.queue.memory.bytes_in_use for w in sched.workers] == baseline
        assert [len(w.queue.memory.live_allocations) for w in sched.workers] == live
        assert len(report2.records) == 500

    def test_makespan_never_worse_than_serialized(self, stress_report_and_scheduler):
        report, _, _ = stress_report_and_scheduler
        assert report.makespan_ns <= report.serialized_ns
        # three devices under sustained load should be strictly better
        assert report.makespan_ns < report.serialized_ns

    def test_retry_path_exercised_under_load(self, stress_report_and_scheduler):
        report, _, _ = stress_report_and_scheduler
        assert report.metrics.value("service.retried") > 0
        assert report.metrics.value("service.spot_checks") > 0
        assert report.metrics.value("service.spot_check_failures") == 0
