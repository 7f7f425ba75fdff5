"""Multi-device gang jobs through the query scheduler."""

import numpy as np
import pytest

from repro.checking import graphgen, oracle
from repro.faults import FaultInjector, FaultRule
from repro.service.request import Request, RequestStatus
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.workload import GraphSpec


@pytest.fixture()
def spec():
    return GraphSpec("pl", graphgen.power_law(64, seed=5))


def make_scheduler(spec, pool=("v100s", "v100s", "mi100", "max1100"), **cfg):
    return QueryScheduler(pool=pool, catalog=[spec], config=SchedulerConfig(**cfg))


class TestGangDispatch:
    def test_gang_completes_with_correct_result(self, spec):
        s = make_scheduler(spec, spot_check_every=1)
        rep = s.run([Request(req_id=0, algorithm="bfs", graph="pl", source=0, devices=4)])
        rec = rep.records[0]
        assert rec.status is RequestStatus.COMPLETED
        assert rec.gang == 4
        assert rec.solo_ns > 0

    def test_gang_reserves_all_workers(self, spec):
        s = make_scheduler(spec)
        rep = s.run([Request(req_id=0, algorithm="sssp", graph="pl", source=0, devices=4)])
        rec = rep.records[0]
        # every worker was busy for the full makespan
        assert all(w["busy_ns"] == pytest.approx(rec.service_ns) for w in rep.workers)
        assert all(w["dispatched"] == 1 for w in rep.workers)

    def test_service_time_is_bsp_makespan(self, spec):
        from repro.dist import distributed_cc
        from repro.sycl.device import get_device

        s = make_scheduler(spec)
        rep = s.run([Request(req_id=0, algorithm="cc", graph="pl", devices=2)])
        rec = rep.records[0]
        direct = distributed_cc(spec.coo, 2, devices=[get_device("v100s")] * 2)
        assert rec.service_ns == pytest.approx(direct.makespan_ns)
        assert rec.solo_ns == pytest.approx(sum(direct.device_times_ns))

    def test_serialized_makespan_charges_solo_cost(self, spec):
        s = make_scheduler(spec)
        rep = s.run([Request(req_id=0, algorithm="bfs", graph="pl", source=0, devices=4)])
        rec = rep.records[0]
        # the counterfactual replays the single-queue cost, not the
        # BSP makespan (which includes modeled exchange)
        assert rep.serialized_ns == pytest.approx(rec.solo_ns)

    def test_gang_barrier_waits_for_enough_idle_workers(self, spec):
        s = make_scheduler(spec, pool=("v100s", "v100s"))
        trace = [
            Request(req_id=0, algorithm="bfs", graph="pl", source=0, arrival_ns=0.0),
            Request(req_id=1, algorithm="bfs", graph="pl", source=0, devices=2, arrival_ns=1.0),
        ]
        rep = s.run(trace)
        solo, gang = rep.records
        assert gang.status is RequestStatus.COMPLETED
        # the gang could not start until the solo dispatch finished on
        # worker 0 even though worker 1 was idle the whole time
        assert gang.start_ns >= solo.finish_ns

    def test_gang_head_blocks_later_solo_work(self, spec):
        """FIFO barrier: queued solo requests don't leapfrog a waiting gang."""
        s = make_scheduler(spec, pool=("v100s", "v100s"))
        trace = [
            Request(req_id=0, algorithm="bfs", graph="pl", source=0, arrival_ns=0.0),
            Request(req_id=1, algorithm="bfs", graph="pl", source=0, devices=2, arrival_ns=1.0),
            Request(req_id=2, algorithm="cc", graph="pl", arrival_ns=2.0),
        ]
        rep = s.run(trace)
        gang, late = rep.records[1], rep.records[2]
        assert late.start_ns >= gang.start_ns


class TestGangFailures:
    def test_no_gang_implementation_fails_permanently(self, spec):
        s = make_scheduler(spec)
        rep = s.run([Request(req_id=0, algorithm="pagerank", graph="pl", devices=2)])
        rec = rep.records[0]
        assert rec.status is RequestStatus.FAILED
        assert rec.attempts == 1  # DispatchError is not retried

    def test_transient_fault_retries_with_devices_preserved(self, spec):
        # the first kernel launch on a gang partition queue faults
        s = make_scheduler(
            spec, fault_injector=FaultInjector([FaultRule("kernel_launch", count=1)])
        )
        rep = s.run(
            [Request(req_id=0, algorithm="bfs", graph="pl", source=0, devices=2)]
        )
        rec = rep.records[0]
        assert rec.status is RequestStatus.COMPLETED
        assert rec.attempts == 2
        assert rec.gang == 2  # the retry ran as a gang again

    def test_oversized_gang_rejected_up_front(self, spec):
        s = make_scheduler(spec, pool=("v100s",))
        with pytest.raises(ValueError, match="gang"):
            s.run([Request(req_id=0, algorithm="bfs", graph="pl", devices=2)])
        with pytest.raises(ValueError):
            s.run([Request(req_id=0, algorithm="bfs", graph="pl", devices=0)])


class TestGangObservability:
    def test_gang_metric_counted(self, spec):
        s = make_scheduler(spec)
        rep = s.run(
            [Request(req_id=i, algorithm="bfs", graph="pl", source=0, devices=2,
                     arrival_ns=float(i)) for i in range(3)]
        )
        assert rep.metrics.value("service.gang_dispatches") == 3.0
        assert rep.metrics.value("dist.exchange.messages") > 0

    def test_spot_check_verifies_gang_results(self, spec):
        s = make_scheduler(spec, spot_check_every=1)
        rep = s.run([Request(req_id=0, algorithm="cc", graph="pl", devices=4)])
        assert rep.records[0].status is RequestStatus.COMPLETED
        assert rep.metrics.value("service.spot_check_failures") == 0.0

    def test_ordinary_requests_unchanged(self, spec):
        """devices=1 requests keep gang=1 / solo_ns=0 records."""
        s = make_scheduler(spec)
        rep = s.run([Request(req_id=0, algorithm="bfs", graph="pl", source=0)])
        rec = rep.records[0]
        assert rec.gang == 1
        assert rec.solo_ns == 0.0
        assert rep.serialized_ns == pytest.approx(rec.service_ns)
