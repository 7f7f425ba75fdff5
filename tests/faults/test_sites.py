"""The four instrumented sites, each exercised through its real entry
point: queue submission, the allocator, scheduler dispatch, BSP exchange."""

import numpy as np
import pytest

from repro.algorithms.catalog import GraphBundle
from repro.errors import AllocationFault, KernelLaunchError
from repro.faults import FaultInjector, FaultRule
from repro.perfmodel.cost import KernelWorkload, WorkgroupGeometry
from repro.service.dispatch import default_registry
from repro.service.request import Request
from repro.sycl import Queue, get_device


def make_queue():
    return Queue(get_device("v100s"), capacity_limit=0)


def small_workload(name="k"):
    geom = WorkgroupGeometry(global_size=64, workgroup_size=64, subgroup_size=32)
    wl = KernelWorkload(name, geometry=geom, active_lanes=64)
    wl.add_stream(np.arange(64), 4, region=0, is_write=False, label="in")
    return wl


class TestKernelLaunchSite:
    def test_injected_launch_raises_and_charges_nothing(self):
        q = make_queue()
        q.submit(small_workload())  # pre-fault traffic
        before_ns = q.elapsed_ns
        before_seq = q._seq
        q.enable_fault_injection(
            FaultInjector([FaultRule("kernel_launch", count=1)], seed=0)
        )
        with pytest.raises(KernelLaunchError, match="injected kernel-launch"):
            q.submit(small_workload("doomed"))
        # the rejected launch left no trace on the modeled timeline
        assert q.elapsed_ns == before_ns
        assert q._seq == before_seq
        # budget spent: the next submit goes through and is charged
        q.submit(small_workload())
        assert q.elapsed_ns > before_ns

    def test_disable_returns_to_zero_cost_path(self):
        q = make_queue()
        q.enable_fault_injection(
            FaultInjector([FaultRule("kernel_launch", count=None)], seed=0)
        )
        q.disable_fault_injection()
        assert q.fault_injector is None
        assert q.memory.fault_injector is None
        q.submit(small_workload())  # no raise

    def test_timeline_identical_with_inert_injector(self):
        # an attached injector whose rules never fire must not move a
        # single modeled nanosecond (one is-None check + misses only)
        plain, armed = make_queue(), make_queue()
        armed.enable_fault_injection(
            FaultInjector([FaultRule("kernel_launch", probability=1.0, count=1, after_ns=1e18)], seed=0)
        )
        for q in (plain, armed):
            for k in range(5):
                q.submit(small_workload(f"k{k}"))
        assert plain.elapsed_ns == armed.elapsed_ns


class TestAllocSite:
    def test_injected_alloc_raises_and_leaves_accounting_untouched(self):
        q = make_queue()
        keep = q.malloc_shared((16,), np.float64, label="keep")
        before_bytes = q.memory.bytes_in_use
        before_peak = q.memory.peak_bytes
        q.enable_fault_injection(FaultInjector([FaultRule("alloc", count=1)], seed=0))
        with pytest.raises(AllocationFault, match="injected allocation failure"):
            q.malloc_shared((1024,), np.float64, label="doomed")
        assert q.memory.bytes_in_use == before_bytes
        assert q.memory.peak_bytes == before_peak
        # budget spent: allocation works again, and the survivor is intact
        arr = q.malloc_shared((8,), np.float64, label="after")
        assert arr.shape == (8,)
        q.free(arr)
        q.free(keep)
        assert q.memory.bytes_in_use == 0

    def test_host_allocations_are_never_faulted(self):
        # host-side malloc is not a device fault site; only device/shared
        # kinds roll the dice
        q = make_queue()
        q.enable_fault_injection(
            FaultInjector([FaultRule("alloc", count=None)], seed=0)
        )
        arr = q.memory.malloc_host((32,), np.float64, label="host")
        assert arr.shape == (32,)


    def test_failed_graph_build_frees_only_its_own_allocations(self, tiny_catalog):
        """An alloc fault halfway through dobfs's second representation
        (the CSC) frees what that build allocated, leaves the cached CSR
        alone, and a retry builds the CSC alone."""
        spec = tiny_catalog[0]  # weighted: the CSC allocates three arrays
        q = make_queue()
        bundle = GraphBundle(spec.name, spec.coo, q)
        registry = default_registry()
        req = Request(req_id=0, algorithm="dobfs", graph=spec.name, source=0)
        csr = bundle.get("csr")
        cached = [(a.alloc_id, a.label) for a in q.memory.live_allocations]
        cached_bytes = q.memory.bytes_in_use
        # one draw per device allocation: a seed whose first draw misses
        # and whose second fires, so the CSC's col_ptr is allocated and
        # its row_idx fails
        def misses_then_fires(seed):
            first, second = np.random.default_rng(seed).random(2)
            return first >= 0.5 > second

        seed = next(filter(misses_then_fires, range(100)))
        injector = FaultInjector([FaultRule("alloc", probability=0.5)], seed=seed)
        q.enable_fault_injection(injector)
        with pytest.raises(AllocationFault):
            registry.prepare(bundle, req)
        assert [e.context["label"] for e in injector.fired] == ["graph.row_idx"]
        assert [(a.alloc_id, a.label) for a in q.memory.live_allocations] == cached
        assert q.memory.bytes_in_use == cached_bytes
        assert bundle.get("csr") is csr
        # the retry (budget spent) builds the CSC and nothing else
        registry.prepare(bundle, req)
        live = [(a.alloc_id, a.label) for a in q.memory.live_allocations]
        assert live[: len(cached)] == cached
        assert [label for _, label in live[len(cached):]] == [
            "graph.col_ptr", "graph.row_idx", "graph.weights",
        ]
        assert bundle.get("csr") is csr


class TestDeviceLossSite:
    def _trace(self, n=12):
        from tests.service.conftest import burst

        return burst(n)

    def test_quarantine_and_failover(self, tiny_catalog):
        from repro.service.scheduler import QueryScheduler, SchedulerConfig

        inj = FaultInjector([FaultRule("device_loss", count=1)], seed=0)
        s = QueryScheduler(
            pool=("v100s", "v100s", "mi100"),
            catalog=tiny_catalog,
            config=SchedulerConfig(fault_injector=inj),
        )
        report = s.run(self._trace())
        # exactly one worker lost; all work failed over to survivors
        assert sum(1 for w in s.workers if w.quarantined) == 1
        lost = next(w for w in s.workers if w.quarantined)
        assert report.workers[lost.wid]["dispatched"] == 0
        statuses = {r.status.value for r in report.records}
        assert statuses == {"completed"}
        assert report.metrics.value("faults.quarantined") == 1.0
        assert len(report.faults) == 1 and report.faults[0].site == "device_loss"

    def test_failover_does_not_burn_attempts(self, tiny_catalog):
        from repro.service.scheduler import QueryScheduler, SchedulerConfig

        inj = FaultInjector([FaultRule("device_loss", count=1)], seed=0)
        s = QueryScheduler(
            pool=("v100s", "mi100"),
            catalog=tiny_catalog,
            config=SchedulerConfig(fault_injector=inj, max_retries=0),
        )
        report = s.run(self._trace(6))
        # with retries disabled, requeue-on-loss must still complete:
        # failover is a re-dispatch, not a retry
        assert all(r.status.value == "completed" for r in report.records)
        assert all(r.attempts == 1 for r in report.records)

    def test_pool_exhaustion_fails_leftovers_typed(self, tiny_catalog):
        from repro.service.scheduler import QueryScheduler, SchedulerConfig

        inj = FaultInjector([FaultRule("device_loss", count=None)], seed=0)
        s = QueryScheduler(
            pool=("v100s", "mi100"),
            catalog=tiny_catalog,
            config=SchedulerConfig(fault_injector=inj),
        )
        report = s.run(self._trace(8))
        assert all(w.quarantined for w in s.workers)
        failed = [r for r in report.records if r.status.value == "failed"]
        assert failed and all("device pool exhausted" in r.reason for r in failed)
        assert report.metrics.value("faults.degraded") == float(len(failed))

    def test_gang_exceeding_surviving_pool_fails_fast(self, tiny_catalog):
        from repro.service.request import Request
        from repro.service.scheduler import QueryScheduler, SchedulerConfig

        inj = FaultInjector([FaultRule("device_loss", count=1)], seed=0)
        s = QueryScheduler(
            pool=("v100s", "mi100"),
            catalog=tiny_catalog,
            config=SchedulerConfig(fault_injector=inj),
        )
        gang = Request(req_id=0, algorithm="bfs", graph="rmat", devices=2)
        report = s.run([gang])
        rec = report.records[0]
        assert rec.status.value == "failed"
        assert "exceeds surviving pool" in rec.reason


class TestRetryDegradation:
    def test_exhausted_fault_retries_fail_with_typed_reason(self, tiny_catalog):
        from tests.service.conftest import burst

        from repro.service.scheduler import QueryScheduler, SchedulerConfig

        # every launch fails forever: retries burn out, the request FAILs
        # with a typed reason instead of an anonymous error string
        inj = FaultInjector(
            [FaultRule("kernel_launch", probability=1.0, count=None)], seed=0
        )
        s = QueryScheduler(
            pool=("v100s",),
            catalog=tiny_catalog,
            config=SchedulerConfig(fault_injector=inj, max_retries=1),
        )
        report = s.run(burst(1))
        rec = report.records[0]
        assert rec.status.value == "failed"
        assert rec.reason.startswith("kernel-launch-fault:")
        assert report.metrics.value("faults.degraded") == 1.0
        assert report.metrics.value("service.retried") == 1.0
