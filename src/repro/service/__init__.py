"""Multi-tenant query serving over the simulated runtime.

The ROADMAP's north star is a system that serves heavy concurrent
traffic; this package is the serving layer.  It schedules a stream of
analytics requests (*algorithm × graph × source × layout × priority*)
across a pool of per-device SYCL queues — with admission control,
same-graph batching, deadlines, bounded retries and priority shedding —
entirely on the **modeled** clock, so a serving run is a deterministic,
replayable function of its seed (Gunrock-style: the harness around the
kernels is a first-class component of throughput).

Importing this package is zero-cost for direct algorithm runs: nothing
here touches the cost model, queues or frontiers until a scheduler is
constructed (pinned by ``tests/service/test_zero_cost.py``).

Entry points:

* :class:`~repro.service.scheduler.QueryScheduler` — the serving loop;
* :func:`~repro.service.workload.generate_workload` /
  :func:`~repro.service.workload.default_catalog` — seeded traffic;
* ``python -m repro serve-sim`` — the load-simulation CLI.
"""

from repro.service.dispatch import (
    ALGORITHMS,
    DispatchError,
    DispatchRegistry,
    GraphBundle,
    default_registry,
    verify_result,
)
from repro.service.request import (
    PRIORITIES,
    Request,
    RequestRecord,
    RequestStatus,
    priority_name,
)
from repro.service.scheduler import (
    QueryScheduler,
    SchedulerConfig,
    ServiceReport,
    Worker,
)
from repro.service.workload import (
    GraphSpec,
    WorkloadConfig,
    default_catalog,
    generate_workload,
)

__all__ = [
    "ALGORITHMS",
    "PRIORITIES",
    "DispatchError",
    "DispatchRegistry",
    "GraphBundle",
    "GraphSpec",
    "QueryScheduler",
    "Request",
    "RequestRecord",
    "RequestStatus",
    "SchedulerConfig",
    "ServiceReport",
    "Worker",
    "WorkloadConfig",
    "default_catalog",
    "default_registry",
    "generate_workload",
    "priority_name",
    "verify_result",
]
