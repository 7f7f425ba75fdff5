"""Property test: the serving loop conserves requests and memory under
random traces and random fault schedules.

Random traces (priorities, deadlines, gang sizes, layouts) run against
random ``kernel_launch`` / ``alloc`` / ``device_loss`` / ``exchange``
rules and random admission, batching, retry and strict-mode settings.
Whatever the schedule does, every request leaves exactly one record,
each terminal status's counter matches its records, and each worker's
live bytes end where they started: at its prebuilt graph cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultRule
from repro.faults.injector import SITES
from repro.service.dispatch import ALGORITHMS
from repro.service.request import Request, RequestStatus
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.workload import default_catalog
from tests.service.conftest import build_graph_caches

CATALOG = default_catalog(seed=0, scale="tiny")
POOL = ("v100s", "v100s", "mi100")
MIN_VERTICES = min(spec.n_vertices for spec in CATALOG)

#: terminal status -> the counter that tallies it
STATUS_COUNTERS = {
    RequestStatus.COMPLETED: "service.completed",
    RequestStatus.FAILED: "service.failed",
    RequestStatus.SHED: "service.shed",
    RequestStatus.REJECTED: "service.rejected",
    RequestStatus.TIMED_OUT: "service.timed_out",
}


@st.composite
def traces(draw):
    n = draw(st.integers(1, 25))
    return [
        Request(
            req_id=i,
            algorithm=draw(st.sampled_from(ALGORITHMS)),
            graph=draw(st.sampled_from([spec.name for spec in CATALOG])),
            source=draw(st.integers(0, MIN_VERTICES - 1)),
            layout=draw(st.sampled_from(("2lb", "bitmap", "vector", "boolmap"))),
            priority=draw(st.integers(0, 2)),
            arrival_ns=float(draw(st.integers(0, 60_000))),
            timeout_ns=draw(st.none() | st.floats(1_000.0, 200_000.0)),
            devices=draw(st.integers(1, len(POOL))),
        )
        for i in range(n)
    ]


fault_rules = st.lists(
    st.builds(
        FaultRule,
        site=st.sampled_from(SITES),
        probability=st.sampled_from((0.01, 0.05, 0.3, 1.0)),
        count=st.none() | st.integers(1, 4),
    ),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    trace=traces(),
    rules=fault_rules,
    fault_seed=st.integers(0, 2**16),
    max_queue_depth=st.integers(1, 30),
    max_batch=st.integers(1, 4),
    max_retries=st.integers(0, 3),
    strict=st.booleans(),
)
def test_requests_and_bytes_are_conserved(
    trace, rules, fault_seed, max_queue_depth, max_batch, max_retries, strict
):
    injector = FaultInjector(rules, seed=fault_seed)
    scheduler = QueryScheduler(
        pool=POOL,
        catalog=CATALOG,
        config=SchedulerConfig(
            max_queue_depth=max_queue_depth,
            max_batch=max_batch,
            max_retries=max_retries,
            strict=strict,
            fault_injector=injector,
        ),
    )
    # the graph caches are the live-bytes baseline
    build_graph_caches(scheduler)
    before = [w.queue.memory.bytes_in_use for w in scheduler.workers]

    report = scheduler.run(trace)

    assert sorted(r.req_id for r in report.records) == [r.req_id for r in trace]
    for status, counter in STATUS_COUNTERS.items():
        assert report.metrics.value(counter) == len(report.by_status(status)), status
    assert [w.queue.memory.bytes_in_use for w in scheduler.workers] == before
