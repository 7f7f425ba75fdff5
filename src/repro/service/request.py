"""Request model for the multi-tenant query scheduler.

A :class:`Request` is one analytics query: *algorithm × graph × source ×
layout × priority*.  The scheduler (:mod:`repro.service.scheduler`)
admits, batches, dispatches, retries and completes requests entirely in
**simulated time** — the modeled nanoseconds of the cost model — so a
whole serving trace is deterministic and replayable from a seed.

Terminal states mirror what a production front-end would surface:

* ``COMPLETED`` — result produced within the deadline;
* ``TIMED_OUT`` — dropped while queued past its deadline, or finished
  after it (the result is discarded either way);
* ``FAILED`` — all retry attempts exhausted, or the differential
  spot-check caught a wrong result;
* ``REJECTED`` — bounced at admission (queue full, nothing cheaper to
  shed);
* ``SHED`` — admitted earlier but evicted to make room for
  higher-priority work (graceful degradation).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional

#: priority levels, best first; the numeric priority is the tuple index
PRIORITIES = ("high", "normal", "low")


def make_trace_id(seed: int, req_id: int) -> str:
    """Deterministic 16-hex-digit trace id for one request.

    Derived by hashing, not drawn from the workload RNG, so assigning
    trace ids consumes no random draws — the request stream (and every
    golden file derived from it) is bit-identical with or without trace
    context.
    """
    return hashlib.blake2b(f"{seed}:{req_id}".encode(), digest_size=8).hexdigest()


def priority_name(priority: int) -> str:
    """Human name of a numeric priority (clamped into range)."""
    return PRIORITIES[max(0, min(priority, len(PRIORITIES) - 1))]


class RequestStatus(enum.Enum):
    """Terminal disposition of one request."""

    COMPLETED = "completed"
    TIMED_OUT = "timed-out"
    FAILED = "failed"
    REJECTED = "rejected"
    SHED = "shed"


@dataclass
class Request:
    """One analytics query submitted to the service.

    Attributes
    ----------
    req_id:
        Unique id; also the deterministic tie-break everywhere requests
        are ordered.
    algorithm:
        Name in the dispatch registry (the differential matrix's seven:
        ``bfs dobfs sssp delta_stepping cc bc pagerank``).
    graph:
        Catalog name of the target graph.
    source:
        Source vertex (ignored by cc/pagerank).
    layout / bits:
        Frontier layout and optional bitmap word width.
    priority:
        0 = high, 1 = normal, 2 = low (see :data:`PRIORITIES`).
    arrival_ns:
        Simulated arrival time.
    timeout_ns:
        Deadline relative to arrival (None = scheduler default for the
        priority class).
    devices:
        Worker gang size.  1 (default) is an ordinary request; > 1 asks
        for a multi-device BSP run (``repro.dist``) that reserves that
        many idle workers at once and reports the BSP makespan as its
        service time.  Only bfs/sssp/cc have a ``repro.dist`` entry
        point in the algorithm catalog.
    """

    req_id: int
    algorithm: str
    graph: str
    source: int = 0
    layout: str = "2lb"
    bits: Optional[int] = None
    priority: int = 1
    arrival_ns: float = 0.0
    timeout_ns: Optional[float] = None
    devices: int = 1
    #: end-to-end trace context: one id per request, shared by every
    #: retry attempt, span, histogram exemplar and flight-recorder event
    #: it produces.  Empty = assigned deterministically at admission.
    trace_id: str = ""
    #: mutable scheduling state: attempts made so far
    attempts: int = field(default=0, compare=False)

    def sort_key(self):
        """Dispatch order: priority first, then arrival, then id."""
        return (self.priority, self.arrival_ns, self.req_id)

    def batch_key(self):
        """Requests sharing this key may be dispatched as one batch."""
        return (self.graph, self.algorithm, self.layout, self.bits, self.devices)


@dataclass
class RequestRecord:
    """Terminal record of one request — the unit of the completion timeline.

    ``service_ns`` is the *raw* modeled kernel time of the final attempt
    (before same-device overlap discounting); ``finish_ns`` is where the
    request left the system on the simulated clock.  ``latency_ns`` is
    arrival-to-finish and includes queueing, retries and backoff.
    """

    req_id: int
    algorithm: str
    graph: str
    source: int
    layout: str
    priority: int
    status: RequestStatus
    arrival_ns: float
    start_ns: float = -1.0
    finish_ns: float = -1.0
    service_ns: float = 0.0
    attempts: int = 0
    worker: int = -1
    batch_id: int = -1
    reason: str = ""
    #: trace context carried over from the request (see Request.trace_id)
    trace_id: str = ""
    #: gang size: number of workers the dispatch reserved (1 = ordinary)
    gang: int = 1
    #: for gang dispatches: sum of per-device compute time — what the
    #: same work costs on ONE device, feeding the serialized-makespan
    #: counterfactual (0.0 for ordinary requests: use service_ns)
    solo_ns: float = 0.0
    #: ``repro.algorithms.catalog.result_digest`` of the completed
    #: result array, only populated when
    #: SchedulerConfig.keep_result_digests is on (the chaos CLI's
    #: bit-identity check); "" otherwise
    result_digest: str = ""

    @property
    def latency_ns(self) -> float:
        """Arrival-to-exit latency (0.0 for never-started rejections)."""
        if self.finish_ns < 0:
            return 0.0
        return self.finish_ns - self.arrival_ns

    def timeline_tuple(self):
        """The deterministic completion-timeline entry tests compare."""
        return (
            self.req_id,
            self.status.value,
            round(self.finish_ns, 6),
            round(self.service_ns, 6),
            self.attempts,
            self.worker,
        )
