"""The in-loop differential spot-check: wrong results become FAILED
requests, never silently returned data."""

import numpy as np
import pytest

from repro.algorithms.catalog import CATALOG, GraphBundle
from repro.service.dispatch import default_registry, verify_result
from repro.service.request import Request, RequestStatus
from repro.service.scheduler import QueryScheduler, SchedulerConfig

from tests.service.conftest import burst


def _sabotaged_registry():
    """A registry whose bfs is off by one at the highest-id reached vertex."""
    registry = default_registry()
    honest_bfs = registry._runners["bfs"]

    def lying_bfs(bundle, req):
        dist = np.array(honest_bfs(bundle, req), copy=True)
        reached = np.nonzero(dist >= 0)[0]
        dist[reached[-1]] += 1  # silent corruption
        return dist

    registry.register("bfs", lying_bfs)
    return registry


class TestVerifyResult:
    @pytest.mark.parametrize("algorithm", list(CATALOG))
    def test_honest_results_pass(self, tiny_catalog, algorithm):
        """Every row of the algorithm catalog agrees with the oracle on
        every graph the service serves (the service-side slice of the
        differential matrix)."""
        from repro.sycl import Queue, get_device

        for spec in tiny_catalog:
            q = Queue(get_device("v100s"), capacity_limit=0)
            bundle = GraphBundle(spec.name, spec.coo, q)
            req = Request(req_id=0, algorithm=algorithm, graph=spec.name, source=0)
            result = default_registry().run(bundle, req)
            assert verify_result(spec.coo, algorithm, 0, result) is None

    def test_wrong_result_is_located(self, tiny_catalog):
        spec = tiny_catalog[0]
        from repro.sycl import Queue, get_device

        q = Queue(get_device("v100s"), capacity_limit=0)
        bundle = GraphBundle(spec.name, spec.coo, q)
        req = Request(req_id=0, algorithm="bfs", graph=spec.name, source=0)
        dist = np.array(default_registry().run(bundle, req), copy=True)
        dist[3] = 77
        mismatch = verify_result(spec.coo, "bfs", 0, dist)
        assert mismatch is not None and mismatch[0] == 3 and mismatch[2] == 77


class TestInLoopSpotCheck:
    def test_injected_wrong_result_is_caught(self, tiny_catalog):
        sched = QueryScheduler(
            pool=("v100s",),
            catalog=tiny_catalog,
            config=SchedulerConfig(spot_check_every=1),
            registry=_sabotaged_registry(),
        )
        report = sched.run(burst(4))
        failed = report.by_status(RequestStatus.FAILED)
        assert len(failed) == 4
        assert all("spot-check divergence" in r.reason for r in failed)
        assert report.metrics.value("service.spot_check_failures") == 4
        assert report.metrics.value("service.completed") == 0

    def test_every_nth_sampling(self, tiny_catalog):
        """With every=3 only a third of corrupted results are caught —
        the caught ones FAIL, the unsampled ones sail through (that gap
        is the price of sampling, and exactly why the counter exists)."""
        sched = QueryScheduler(
            pool=("v100s",),
            catalog=tiny_catalog,
            config=SchedulerConfig(spot_check_every=3, max_batch=1),
            registry=_sabotaged_registry(),
        )
        report = sched.run(burst(9))
        assert report.metrics.value("service.spot_checks") == 3
        assert report.metrics.value("service.spot_check_failures") == 3
        assert len(report.by_status(RequestStatus.FAILED)) == 3
        assert len(report.completed()) == 6

    def test_honest_service_spot_checks_clean(self, tiny_catalog, contended_trace):
        sched = QueryScheduler(
            pool=("v100s", "mi100"),
            catalog=tiny_catalog,
            config=SchedulerConfig(spot_check_every=4),
        )
        report = sched.run(contended_trace)
        assert report.metrics.value("service.spot_checks") > 0
        assert report.metrics.value("service.spot_check_failures") == 0
        assert len(report.completed()) == len(contended_trace)
