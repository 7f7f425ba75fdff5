"""The multi-tenant query scheduler: simulated-time serving loop.

The :class:`QueryScheduler` turns the repo's one-shot algorithm calls
into a *service*: a stream of :class:`~repro.service.request.Request`
objects is admitted, queued, batched, dispatched across a pool of
per-device SYCL queues, retried on transient failure, and completed —
all on the **modeled** clock, so an entire serving trace is a
deterministic function of (pool, catalog, trace, config).

The moving parts, in dispatch order:

* **Admission control** — the pending queue is bounded
  (``max_queue_depth``).  A full queue sheds the *worst* pending request
  (lowest priority, then latest arrival) if the newcomer outranks it,
  else rejects the newcomer: backpressure for free traffic, graceful
  degradation for paid traffic.
* **Batching** — an idle worker takes up to ``max_batch`` pending
  requests sharing ``(graph, algorithm, layout, bits)``.  The worker's
  :class:`~repro.algorithms.catalog.GraphBundle` cache means the batch
  pays the graph build once; batch members complete in sequence on the
  worker's in-order queue.
* **Overlap accounting** — a dispatch that shares its device with other
  busy workers is discounted by
  :func:`repro.sycl.concurrency.overlap_factor`, the incremental form of
  ``overlapped_makespan``'s same-device shrink; different devices run
  fully concurrently.
* **Gangs** — every dispatch is a gang of ``devices`` workers; an
  ordinary request is a gang of one.  The head of the line waits until
  that many workers are idle at once (a FIFO barrier — no
  lower-priority bypass, so gangs cannot starve) and runs through the
  one dispatch path.  A multi-device gang runs its algorithm-catalog
  row's :mod:`repro.dist` entry point (a BSP job) alone, reserves every
  worker for the BSP makespan, and records the summed per-device
  compute time (``solo_ns``) so the serialized-makespan counterfactual
  charges the single-device cost of the same work.
* **Deadlines** — a request still queued past ``arrival + timeout`` is
  dropped (TIMED_OUT, never executed); one that finishes past its
  deadline is completed-but-discarded (also TIMED_OUT).
* **Retry with backoff** — transient faults (injected by
  :mod:`repro.faults`, OOM) re-enqueue the request at ``now + backoff ·
  2^(attempt-1)`` up to ``max_retries``, then FAIL it.
* **Differential spot-check** — every ``spot_check_every``-th completed
  request is re-verified against the pure-Python oracle; a divergence
  FAILs the request loudly instead of returning corrupt data.

Observability: every request carries a ``service.request > dispatch >
<algorithm>`` span on its (lead) worker's tracer when tracing is enabled
— empty for a gang, whose BSP engine runs on its own queues — and a
:class:`~repro.obs.metrics.MetricsRegistry` accumulates the service
counters (admitted/rejected/shed/timed-out/retried/failed/completed,
batches, gang dispatches, spot-checks) plus a queue-depth gauge — all
timestamped on the simulated clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.catalog import result_digest
from repro.errors import (
    AllocationFault,
    DeviceLostError,
    ExchangeFault,
    FaultInjected,
    KernelLaunchError,
    OutOfMemoryError,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.service.dispatch import (
    DispatchError,
    DispatchRegistry,
    GangBundle,
    GraphBundle,
    default_registry,
    verify_result,
)
from repro.service.request import (
    PRIORITIES,
    Request,
    RequestRecord,
    RequestStatus,
    make_trace_id,
)
from repro.service.workload import GraphSpec
from repro.sycl.concurrency import SAME_DEVICE_OVERLAP, overlap_factor
from repro.sycl.device import Device, get_device
from repro.sycl.queue import Queue


def _fault_kind(error: Exception) -> str:
    """Typed FAILED-reason prefix for an injected-fault degradation."""
    if isinstance(error, AllocationFault):
        return "alloc-fault"
    if isinstance(error, KernelLaunchError):
        return "kernel-launch-fault"
    if isinstance(error, ExchangeFault):
        return "exchange-fault"
    if isinstance(error, DeviceLostError):
        return "device-lost"
    return "injected-fault"


@dataclass
class SchedulerConfig:
    """Serving policy knobs (all times in modeled ns)."""

    #: bound on the pending queue; arrivals beyond it shed or reject
    max_queue_depth: int = 64
    #: max requests dispatched as one same-graph batch
    max_batch: int = 4
    #: transient-failure retries before a request FAILs
    max_retries: int = 2
    #: base retry backoff; attempt k waits backoff · 2^(k-1)
    backoff_ns: float = 100_000.0
    #: default deadline per priority class (None = no deadline)
    timeout_ns: Tuple[Optional[float], ...] = (None, None, None)
    #: verify every Nth completion against the oracle (0 = off)
    spot_check_every: int = 0
    #: same-device overlap efficiency (see repro.sycl.concurrency)
    overlap: float = SAME_DEVICE_OVERLAP
    #: modeled time a faulting attempt occupies its worker before failing
    fault_service_ns: float = 20_000.0
    #: enable strict-mode memory guards + poisoned frees on every worker
    strict: bool = False
    #: attach a span tracer per worker (batch > request > dispatch >
    #: algorithm) and keep a control-plane event log, so one Perfetto
    #: export shows a request's full lifecycle across workers
    trace: bool = False
    #: record service.latency / service.queue_wait / per-algorithm
    #: latency histograms with trace-id exemplars (off by default: the
    #: disabled path records nothing, keeping golden outputs untouched)
    histograms: bool = False
    #: flight-recorder ring capacity (0 = disabled, the zero-cost path)
    flight_capacity: int = 0
    #: where the flight recorder auto-dumps on a FAILED request or an
    #: unhandled exception (None = keep in memory only)
    flight_path: Optional[str] = None
    #: fault-injection plane (repro.faults.FaultInjector); None = every
    #: site disabled, the zero-cost path — modeled timelines and reports
    #: are bit-identical to a build without the plane
    fault_injector: Optional[object] = None
    #: record a blake2b digest of every completed result on its record
    #: (the chaos CLI's cross-run bit-identity check); off by default so
    #: golden outputs are untouched
    keep_result_digests: bool = False

    def timeout_for(self, priority: int) -> Optional[float]:
        if not self.timeout_ns:
            return None
        idx = max(0, min(priority, len(self.timeout_ns) - 1))
        return self.timeout_ns[idx]


class Worker:
    """One dispatch slot: a SYCL queue bound to a pooled device."""

    def __init__(self, wid: int, device: Device, device_name: str, config: SchedulerConfig):
        self.wid = wid
        self.device = device
        self.device_name = device_name
        self.queue = Queue(device)
        self.busy_until = 0.0
        self.busy_ns = 0.0  # effective (overlap-discounted) busy time
        self.dispatched = 0
        #: set by an injected device_loss fault: the worker takes no new
        #: work (in-flight completions drain normally) until the next run
        self.quarantined = False
        self.bundles: Dict[str, GraphBundle] = {}
        if config.strict:
            self.queue.memory.enable_strict(guard=4, poison=True)
        if config.trace:
            self.queue.enable_tracing()

    def bundle_for(self, spec: GraphSpec) -> GraphBundle:
        bundle = self.bundles.get(spec.name)
        if bundle is None:
            bundle = self.bundles[spec.name] = GraphBundle(spec.name, spec.coo, self.queue)
        return bundle


@dataclass
class ServiceReport:
    """Everything one serving run produced, on the modeled clock."""

    records: List[RequestRecord]
    makespan_ns: float
    serialized_ns: float
    metrics: MetricsRegistry
    workers: List[dict] = field(default_factory=list)
    #: control-plane event log (admit/dispatch/retry/finish …), only
    #: populated when the run was traced — the scheduler side of the
    #: merged Perfetto export (see repro.service.traceexport)
    trace_log: Optional[List[dict]] = None
    #: (wid, device_name, SpanTracer) per traced worker
    tracers: List[tuple] = field(default_factory=list)
    #: the run's flight recorder (None when disabled) and the dump path
    #: written on failure, if any
    flight: Optional[FlightRecorder] = None
    flight_dump_path: Optional[str] = None
    #: every fault the injection plane fired during the run, in order
    #: (repro.faults.FaultEvent); empty when injection is disabled
    faults: List[object] = field(default_factory=list)

    def by_status(self, status: RequestStatus) -> List[RequestRecord]:
        return [r for r in self.records if r.status is status]

    def completed(self) -> List[RequestRecord]:
        return self.by_status(RequestStatus.COMPLETED)

    def latencies_by_priority(self) -> Dict[int, List[float]]:
        """Completed-request latencies (ns) keyed by numeric priority."""
        out: Dict[int, List[float]] = {p: [] for p in range(len(PRIORITIES))}
        for r in self.completed():
            out.setdefault(r.priority, []).append(r.latency_ns)
        return out

    def timeline(self) -> List[tuple]:
        """Deterministic completion timeline, ordered by (finish, id)."""
        done = sorted(self.records, key=lambda r: (r.finish_ns, r.req_id))
        return [r.timeline_tuple() for r in done]

    @property
    def throughput_rps(self) -> float:
        """Completed requests per modeled second."""
        if self.makespan_ns <= 0:
            return 0.0
        return len(self.completed()) / (self.makespan_ns / 1e9)


#: event kinds, ordered so same-timestamp completions precede arrivals —
#: a freed worker is visible to work arriving at the same instant
_COMPLETION, _ARRIVAL = 0, 1


class QueryScheduler:
    """Event-driven scheduler over a pool of per-device queues.

    Parameters
    ----------
    pool:
        Device names (``repro.sycl.device.get_device``), one worker per
        entry; repeated names model multiple queues per physical device
        (their dispatches overlap per ``config.overlap``).
    catalog:
        Graph specs requests may name.
    config / registry:
        Policy knobs and the algorithm dispatch table.
    """

    def __init__(
        self,
        pool: Sequence[str] = ("v100s",),
        catalog: Optional[Sequence[GraphSpec]] = None,
        config: Optional[SchedulerConfig] = None,
        registry: Optional[DispatchRegistry] = None,
    ):
        if not pool:
            raise ValueError("pool must name at least one device")
        self.config = config or SchedulerConfig()
        self.registry = registry or default_registry()
        self.catalog: Dict[str, GraphSpec] = {s.name: s for s in (catalog or [])}
        # one Device instance per distinct name: same-name workers share
        # the physical device (and its spec), so overlap grouping sees them
        devices: Dict[str, Device] = {}
        self.workers: List[Worker] = []
        for wid, name in enumerate(pool):
            dev = devices.setdefault(name, get_device(name))
            self.workers.append(Worker(wid, dev, name, self.config))
        self.metrics = MetricsRegistry()
        self.flight = (
            FlightRecorder(self.config.flight_capacity)
            if self.config.flight_capacity
            else None
        )
        #: one `if` per control-plane event site when both trace and
        #: flight are off — the zero-cost-when-disabled discipline
        self._observe = bool(self.config.trace) or self.flight is not None
        self.trace_log: List[dict] = []
        self._flight_dump_path: Optional[str] = None
        self._pending: List[Request] = []
        self._records: Dict[int, RequestRecord] = {}
        self._completions = 0
        #: the fault plane: armed on every worker queue (kernel_launch +
        #: alloc sites) and consulted directly for device_loss; the
        #: exchange site rides into repro.dist with each GangBundle
        self._injector = self.config.fault_injector
        if self._injector is not None:
            self._injector.metrics = self.metrics
            self._injector.flight = self.flight
            for worker in self.workers:
                worker.queue.enable_fault_injection(self._injector)

    # ------------------------------------------------------------------ #
    # serving loop                                                       #
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request]) -> ServiceReport:
        """Serve one request trace to drain; returns the full report."""
        self._pending = []
        self._records = {}
        self._completions = 0
        self.trace_log = []
        self._flight_dump_path = None
        for worker in self.workers:
            # scheduling state is per-run; the graph bundle caches are not
            worker.busy_until = 0.0
            worker.busy_ns = 0.0
            worker.dispatched = 0
            worker.quarantined = False
        if self._injector is not None:
            # each run replays the same seeded fault schedule from the top
            self._injector.reset()
        events: List[tuple] = []
        seq = 0
        for req in requests:
            if req.graph not in self.catalog:
                raise KeyError(f"request {req.req_id} names unknown graph {req.graph!r}")
            if req.devices < 1:
                raise ValueError(f"request {req.req_id}: devices must be >= 1")
            if req.devices > len(self.workers):
                raise ValueError(
                    f"request {req.req_id} wants a gang of {req.devices} workers "
                    f"but the pool has {len(self.workers)}"
                )
            req.attempts = 0
            if not req.trace_id:
                # hand-built requests get deterministic ids too, so every
                # span/exemplar/flight event has a trace context
                req.trace_id = make_trace_id(0, req.req_id)
            heapq.heappush(events, (req.arrival_ns, _ARRIVAL, seq, req))
            seq += 1

        now = 0.0
        try:
            while events:
                # drain every event at this timestamp before dispatching, so
                # simultaneous arrivals contend on priority, not heap order
                now = events[0][0]
                while events and events[0][0] == now:
                    _, kind, _, payload = heapq.heappop(events)
                    if kind == _ARRIVAL:
                        self._admit(payload, now)
                    else:
                        seq = self._complete(payload, now, events, seq)
                seq = self._dispatch_idle(now, events, seq)
                self.metrics.gauge("service.queue_depth", len(self._pending), now)
        except Exception as exc:
            # last-gasp dump: the ring holds the events leading up to the
            # crash, which is exactly what a post-mortem needs
            if self.flight is not None:
                self.flight.record("exception", now, error=repr(exc))
                if self.config.flight_path and self._flight_dump_path is None:
                    self._flight_dump_path = str(
                        self.flight.dump_json(
                            self.config.flight_path,
                            reason=f"unhandled exception: {exc!r}",
                        )
                    )
            raise

        # device-pool exhaustion: work that survived the event loop can
        # only be left over because every worker was quarantined
        for req in sorted(self._pending, key=Request.sort_key):
            self._finalize(
                req, RequestStatus.FAILED, now,
                reason="device pool exhausted (all workers quarantined)",
            )
            self.metrics.inc("faults.degraded", 1.0, now)
        self._pending = []

        records = sorted(self._records.values(), key=lambda r: r.req_id)
        makespan = max((r.finish_ns for r in records), default=0.0)
        return ServiceReport(
            records=records,
            makespan_ns=makespan,
            serialized_ns=self._serialized_makespan(records),
            metrics=self.metrics,
            workers=[
                {
                    "worker": w.wid,
                    "device": w.device_name,
                    "dispatched": w.dispatched,
                    "busy_ns": w.busy_ns,
                    "graphs_cached": len(w.bundles),
                }
                for w in self.workers
            ],
            trace_log=list(self.trace_log) if self.config.trace else None,
            tracers=[
                (w.wid, w.device_name, w.queue.tracer)
                for w in self.workers
                if w.queue.tracer is not None
            ],
            flight=self.flight,
            flight_dump_path=self._flight_dump_path,
            faults=list(self._injector.fired) if self._injector is not None else [],
        )

    def _event(self, kind: str, ts_ns: float, **fields) -> None:
        """Control-plane event fan-out: trace log + flight recorder.

        Only called behind ``self._observe`` checks, so the disabled
        path never builds the fields dict.
        """
        if self.config.trace:
            self.trace_log.append({"kind": kind, "ts_ns": ts_ns, **fields})
        if self.flight is not None:
            self.flight.record(kind, ts_ns, **fields)

    # ------------------------------------------------------------------ #
    # admission                                                          #
    # ------------------------------------------------------------------ #
    def _admit(self, req: Request, now: float) -> None:
        if len(self._pending) >= self.config.max_queue_depth:
            victim = max(self._pending, key=lambda r: (r.priority, r.arrival_ns, r.req_id))
            if (victim.priority, victim.arrival_ns) > (req.priority, req.arrival_ns):
                # shed the worst queued request to admit the newcomer
                self._pending.remove(victim)
                if self._observe:
                    self._event(
                        "shed", now, req_id=victim.req_id, trace_id=victim.trace_id,
                        priority=victim.priority, displaced_by=req.req_id,
                    )
                self._finalize(
                    victim, RequestStatus.SHED, now,
                    reason="shed for higher-priority admission",
                )
            else:
                if self._observe:
                    self._event(
                        "reject", now, req_id=req.req_id, trace_id=req.trace_id,
                        priority=req.priority, queue_depth=len(self._pending),
                    )
                self._finalize(req, RequestStatus.REJECTED, now, reason="queue full")
                return
        self._pending.append(req)
        if self._observe:
            self._event(
                "admit" if req.attempts == 0 else "requeue", now,
                req_id=req.req_id, trace_id=req.trace_id, priority=req.priority,
                attempt=req.attempts, queue_depth=len(self._pending),
            )
        if req.attempts == 0:
            self.metrics.inc("service.admitted", 1.0, now)

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #
    def _dispatch_idle(self, now: float, events: List[tuple], seq: int) -> int:
        # head-of-line loop: recompute the idle set and the best pending
        # request after every dispatch.  The head waits here (a FIFO
        # barrier) until ``head.devices`` workers are idle at once, so a
        # gang cannot be starved by a stream of single-device work.
        while True:
            self._expire(now)
            if not self._pending:
                return seq
            idle = [w for w in self.workers if w.busy_until <= now and not w.quarantined]
            if not idle:
                return seq
            head = min(self._pending, key=Request.sort_key)
            if len(idle) < head.devices:
                alive = sum(1 for w in self.workers if not w.quarantined)
                if head.devices <= alive:
                    return seq
                # the gang can never assemble on the surviving pool
                self._pending.remove(head)
                self._finalize(
                    head, RequestStatus.FAILED, now,
                    reason=f"gang of {head.devices} exceeds surviving pool ({alive})",
                )
                self.metrics.inc("faults.degraded", 1.0, now)
                continue
            gang = idle[: head.devices]
            # device loss is rolled before the batch leaves the queue: on
            # failover the next iteration re-plans on the survivors
            if self._injector is not None and self._lose_device(gang, now):
                continue
            seq = self._dispatch(gang, self._take_batch(head), now, events, seq)

    def _lose_device(self, candidates: List[Worker], now: float) -> bool:
        """Roll the ``device_loss`` site for each candidate worker.

        A fire quarantines the worker — it takes no further dispatches
        for the rest of the run, modeling a device dropped from the pool
        — and returns True so the caller re-plans on the survivors.
        In-flight work on other workers is unaffected (drain semantics).
        """
        lost = False
        for worker in candidates:
            fault = self._injector.check(
                "device_loss", now, worker=worker.wid, device=worker.device_name
            )
            if fault is not None:
                worker.quarantined = True
                lost = True
                self.metrics.inc("faults.quarantined", 1.0, now)
                self.metrics.gauge(
                    "service.pool_live",
                    float(sum(1 for w in self.workers if not w.quarantined)),
                    now,
                )
                if self._observe:
                    self._event(
                        "quarantine", now, worker=worker.wid,
                        device=worker.device_name, fault_seq=fault.seq,
                    )
        return lost

    def _expire(self, now: float) -> None:
        """Drop pending requests already past their deadline."""
        still = []
        for req in self._pending:
            timeout = req.timeout_ns
            if timeout is None:
                timeout = self.config.timeout_for(req.priority)
            if timeout is not None and now > req.arrival_ns + timeout:
                if self._observe:
                    self._event(
                        "timeout", now, req_id=req.req_id, trace_id=req.trace_id,
                        where="queued",
                    )
                self._finalize(
                    req, RequestStatus.TIMED_OUT, now, reason="deadline passed in queue"
                )
            else:
                still.append(req)
        self._pending = still

    def _take_batch(self, head: Request) -> List[Request]:
        """Take the head and its same-key companions off the pending
        queue; a gang runs alone."""
        size = self.config.max_batch if head.devices == 1 else 1
        key = head.batch_key()
        companions = sorted(
            (r for r in self._pending if r is not head and r.batch_key() == key),
            key=Request.sort_key,
        )
        batch = [head] + companions[: size - 1]
        for r in batch:
            self._pending.remove(r)
        return batch

    def _dispatch(
        self, gang: List[Worker], batch: List[Request], now: float, events: List[tuple], seq: int
    ) -> int:
        """Run ``batch`` on ``gang``: one worker, or ``devices`` for a gang.

        A gang differs only where a multi-device BSP run must: it is a
        batch of one, its service time is the BSP makespan (recorded
        with its ``solo_ns``), every gang worker is busy for all of it
        with no same-device overlap discount (the engine owns the
        devices), and it counts as ``service.gang_dispatches`` rather
        than ``service.batches``.
        """
        lead = gang[0]
        spec = self.catalog[batch[0].graph]
        if len(gang) == 1:
            bundle = lead.bundle_for(spec)
            # same-device overlap: count this device's busy workers, this
            # dispatch included (overlapped_makespan's incremental form)
            active = 1 + sum(
                1
                for w in self.workers
                if w is not lead and w.busy_until > now and id(w.device.spec) == id(lead.device.spec)
            )
            factor = overlap_factor(active, self.config.overlap)
            self.metrics.inc("service.batches", 1.0, now)
        else:
            bundle = GangBundle(spec.coo, [w.device for w in gang], self.metrics, self._injector)
            factor = 1.0
            self.metrics.inc("service.gang_dispatches", 1.0, now)
        batch_id = lead.dispatched
        for w in gang:
            w.dispatched += 1
        if len(batch) > 1:
            self.metrics.inc("service.batched_requests", float(len(batch) - 1), now)

        # traced workers anchor the batch on the simulated clock, so the
        # worker track's spans line up with the scheduler's request track
        # (cursor moves are tracer-only state: modeled ns are untouched)
        tracer = lead.queue.tracer
        if tracer is not None:
            tracer.cursor_ns = max(tracer.cursor_ns, now)
        with lead.queue.span(
            "service.batch", batch_id,
            attrs={"worker": lead.wid, "size": len(batch), "overlap_factor": round(factor, 4)},
        ):
            start = now
            for req in batch:
                req.attempts += 1
                if tracer is not None:
                    tracer.cursor_ns = max(tracer.cursor_ns, start)
                result, raw_ns, solo_ns, error, span_ts = self._execute(lead, bundle, req)
                effective = raw_ns * factor
                finish = start + effective
                for w in gang:
                    w.busy_ns += effective
                rec = self._record_for(req)
                rec.start_ns = start
                rec.service_ns = raw_ns
                rec.attempts = req.attempts
                rec.worker = lead.wid
                rec.batch_id = batch_id
                rec.gang = len(gang)
                rec.solo_ns = solo_ns
                if self._observe:
                    self._event(
                        "dispatch", start, req_id=req.req_id, trace_id=req.trace_id,
                        attempt=req.attempts, worker=lead.wid, batch_id=batch_id,
                        algorithm=req.algorithm, raw_ns=raw_ns, effective_ns=effective,
                        gang=len(gang), solo_ns=solo_ns, worker_ts_ns=span_ts,
                        error=repr(error) if error is not None else "",
                    )
                heapq.heappush(events, (finish, _COMPLETION, seq, (req, result, error)))
                seq += 1
                start = finish
        for w in gang:
            w.busy_until = start
        return seq

    def _execute(self, lead: Worker, bundle: "GraphBundle | GangBundle", req: Request):
        """Run one attempt on the lead worker's queue; never leaks allocations.

        Returns ``(result_copy, raw_service_ns, solo_ns, error,
        span_start_ns)``.  An ordinary attempt's service time is the
        kernel time it adds to the worker's queue.  A gang's is the BSP
        makespan its runner records on the :class:`GangBundle`, with the
        summed per-device compute as ``solo_ns``; the BSP engine runs on
        its own partition queues, so the gang's spans on the lead worker
        stay empty.  The span start is where the attempt's
        ``service.request`` span landed on the worker's tracer (-1.0
        untraced), which the trace exporter uses to bind flow arrows.
        All allocations the attempt made are freed once the result is
        copied out, so live bytes return to the graph-cache baseline
        after every request (pinned by the stress suite), and the memory
        timeline is cleared: nothing reads a worker's, so a long-running
        server would otherwise keep every memory event it ever served.
        """
        q = lead.queue
        t_prep = q.elapsed_ns
        try:
            # graph builds go to the persistent bundle cache, not the
            # request's scratch window (freed + poisoned on completion)
            self.registry.prepare(bundle, req)
        except (OutOfMemoryError, FaultInjected) as exc:
            # an injected launch/alloc fault interrupted the graph build;
            # the build already freed what it allocated, so only the
            # partial build's kernel time is charged to the attempt
            raw_ns = q.elapsed_ns - t_prep
            if raw_ns == 0.0:
                raw_ns = self.config.fault_service_ns
            q.memory.reset_timeline()
            return None, raw_ns, 0.0, exc, -1.0
        before = {a.alloc_id for a in q.memory.live_allocations}
        t0 = q.elapsed_ns
        result = error = None
        span_ts = -1.0
        with q.span(
            "service.request", req.req_id,
            attrs={"trace_id": req.trace_id, "attempt": req.attempts, "algorithm": req.algorithm},
        ) as sp:
            if sp is not None:
                span_ts = sp.start_ns
            with q.span("service.dispatch", lead.wid, attrs={"trace_id": req.trace_id}):
                try:
                    result = np.array(self.registry.run(bundle, req), copy=True)
                except (OutOfMemoryError, DispatchError, FaultInjected) as exc:
                    # FaultInjected from a gang means the BSP engine could
                    # not recover (exchange kept firing past the superstep
                    # retry bound, or a launch/alloc fault hit a partition
                    # queue); like any transient, the attempt is retryable
                    error = exc
        raw_ns = q.elapsed_ns - t0
        solo_ns = 0.0
        if isinstance(bundle, GangBundle) and error is None:
            raw_ns, solo_ns = bundle.makespan_ns, bundle.solo_ns
        if error is not None and raw_ns == 0.0:
            raw_ns = self.config.fault_service_ns
        for alloc in [a for a in q.memory.live_allocations if a.alloc_id not in before]:
            q.memory.free(alloc.array)
        q.memory.reset_timeline()
        return result, raw_ns, solo_ns, error, span_ts

    # ------------------------------------------------------------------ #
    # completion                                                         #
    # ------------------------------------------------------------------ #
    def _complete(self, payload, now: float, events: List[tuple], seq: int) -> int:
        req, result, error = payload
        if error is not None:
            return self._retry_or_fail(req, now, error, events, seq)
        timeout = req.timeout_ns
        if timeout is None:
            timeout = self.config.timeout_for(req.priority)
        if timeout is not None and now > req.arrival_ns + timeout:
            if self._observe:
                self._event(
                    "timeout", now, req_id=req.req_id, trace_id=req.trace_id,
                    where="executed",
                )
            self._finalize(req, RequestStatus.TIMED_OUT, now, reason="finished past deadline")
            return seq
        self._completions += 1
        every = self.config.spot_check_every
        if every and self._completions % every == 0:
            self.metrics.inc("service.spot_checks", 1.0, now)
            mismatch = verify_result(
                self.catalog[req.graph].coo, req.algorithm, req.source, result
            )
            if self._observe:
                self._event(
                    "spot_check", now, req_id=req.req_id, trace_id=req.trace_id,
                    algorithm=req.algorithm, ok=mismatch is None,
                    detail="" if mismatch is None else f"vertex {mismatch[0]}",
                )
            if mismatch is not None:
                v, want, got = mismatch
                self.metrics.inc("service.spot_check_failures", 1.0, now)
                self._finalize(
                    req, RequestStatus.FAILED, now,
                    reason=f"spot-check divergence at vertex {v}: oracle {want!r}, served {got!r}",
                )
                return seq
        self._finalize(req, RequestStatus.COMPLETED, now)
        if self.config.keep_result_digests and result is not None:
            self._records[req.req_id].result_digest = result_digest(result)
        if self.config.histograms:
            rec = self._records[req.req_id]
            self.metrics.observe("service.latency", rec.latency_ns, now, req.trace_id)
            self.metrics.observe(
                f"service.latency.{req.algorithm}", rec.latency_ns, now, req.trace_id
            )
            if rec.start_ns >= 0:
                self.metrics.observe(
                    "service.queue_wait",
                    max(0.0, rec.start_ns - rec.arrival_ns),
                    now,
                    req.trace_id,
                )
        return seq

    def _retry_or_fail(
        self, req: Request, now: float, error: Exception, events: List[tuple], seq: int
    ) -> int:
        # DispatchError is permanent (retrying an unknown algorithm is futile)
        retryable = not isinstance(error, DispatchError)
        if retryable and req.attempts <= self.config.max_retries:
            backoff = self.config.backoff_ns * (2.0 ** (req.attempts - 1))
            self.metrics.inc("service.retried", 1.0, now)
            if self._observe:
                self._event(
                    "retry", now, req_id=req.req_id, trace_id=req.trace_id,
                    attempt=req.attempts, backoff_ns=backoff,
                    retry_at_ns=now + backoff, error=repr(error),
                )
            # every field carries over: latency is measured from the first
            # arrival, and the retry stays in the same trace
            heapq.heappush(events, (now + backoff, _ARRIVAL, seq, replace(req)))
            seq += 1
        else:
            reason = f"failed after {req.attempts} attempts: {error}"
            if isinstance(error, FaultInjected):
                # typed reason: degraded service, not a correctness bug
                reason = f"{_fault_kind(error)}: {reason}"
                self.metrics.inc("faults.degraded", 1.0, now)
            self._finalize(req, RequestStatus.FAILED, now, reason=reason)
        return seq

    # ------------------------------------------------------------------ #
    # bookkeeping                                                        #
    # ------------------------------------------------------------------ #
    def _record_for(self, req: Request) -> RequestRecord:
        rec = self._records.get(req.req_id)
        if rec is None:
            rec = self._records[req.req_id] = RequestRecord(
                req_id=req.req_id,
                algorithm=req.algorithm,
                graph=req.graph,
                source=req.source,
                layout=req.layout,
                priority=req.priority,
                status=RequestStatus.REJECTED,
                arrival_ns=req.arrival_ns,
                trace_id=req.trace_id,
            )
        return rec

    def _finalize(self, req: Request, status: RequestStatus, now: float, reason: str = "") -> None:
        # one counter per terminal status: service.completed, .failed, ...
        self.metrics.inc(f"service.{status.name.lower()}", 1.0, now)
        rec = self._record_for(req)
        rec.status = status
        rec.finish_ns = now
        rec.attempts = max(rec.attempts, req.attempts)
        rec.reason = reason
        if self._observe:
            self._event(
                "finish", now, req_id=req.req_id, trace_id=req.trace_id,
                status=status.value, attempts=rec.attempts,
                latency_ns=rec.latency_ns, reason=reason,
            )
        if (
            status is RequestStatus.FAILED
            and self.flight is not None
            and self.config.flight_path
            and self._flight_dump_path is None
        ):
            # first failure wins: the dump freezes the ring at the moment
            # the failing request's events are still in it
            self._flight_dump_path = str(
                self.flight.dump_json(
                    self.config.flight_path,
                    reason=f"request {req.req_id} FAILED: {reason}",
                    meta={
                        "req_id": req.req_id,
                        "trace_id": req.trace_id,
                        "algorithm": req.algorithm,
                        "graph": req.graph,
                    },
                )
            )

    @staticmethod
    def _serialized_makespan(records: Sequence[RequestRecord]) -> float:
        """Completion time of the same executed work on ONE in-order queue.

        Replays every executed request (final-attempt raw service time)
        in arrival order through a single work-conserving queue: start =
        max(previous finish, arrival).  The multi-device speedup quoted
        by the CLI is makespan vs this baseline, same trace, same costs.
        Gang dispatches are charged their *solo* cost (summed per-device
        compute, no exchange): what the same BSP job would cost on the
        one queue this counterfactual owns.
        """
        t = 0.0
        for rec in sorted(records, key=lambda r: (r.arrival_ns, r.req_id)):
            if rec.service_ns <= 0:
                continue
            cost = rec.solo_ns if rec.solo_ns > 0 else rec.service_ns
            t = max(t, rec.arrival_ns) + cost
        return t
