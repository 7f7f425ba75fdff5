"""One Perfetto export for a whole serving run.

Merges the scheduler's control-plane view with every traced worker's
span tree into a single chrome-trace JSON:

* **process 1 — scheduler**: one track per request (``req#<id>``) with
  an ``X`` slice spanning arrival → finish, nested ``X`` slices for each
  dispatch attempt, and instant events for admission, requeue, retry,
  shed, rejection, timeout, spot-check and finish;
* **process 2+w — worker w**: the worker queue's hierarchical span tree
  (``service.batch > service.request > service.dispatch > <algorithm> >
  iteration > operator > kernel``) on a single per-worker track, plus
  its counter tracks.  Worker tracers are anchored on the simulated
  clock at dispatch, so both processes share one timeline;
* **flow events** link a request's lifecycle across processes: the flow
  id is derived from the ``trace_id``, starting at the request slice,
  stepping through every dispatch attempt on whichever worker served it
  (retries included — the arrows make the retry chain visible), and
  ending back at the request's finish.

Every span and exemplar in the run carries the same ``trace_id``, so a
slow ``p99`` in the report resolves to exactly one lifecycle here.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Union

from repro.obs.export import trace_events as tracer_events

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.scheduler import ServiceReport

_SCHED_PID = 1
_WORKER_PID0 = 2

#: trace_log kinds rendered as instant events on the request track
_INSTANT_KINDS = (
    "admit", "requeue", "retry", "shed", "reject", "timeout", "spot_check", "finish",
)


def _ns_to_us(ns: float) -> float:
    return round(ns / 1000.0, 4)


def _flow_id(trace_id: str) -> int:
    """Stable 32-bit flow id from the (hex) trace id."""
    try:
        return int(trace_id[:8], 16)
    except ValueError:
        return zlib.crc32(trace_id.encode())


def service_trace_events(report: "ServiceReport") -> List[dict]:
    """Build the merged chrome-trace event list for one serving run."""
    if report.trace_log is None:
        raise ValueError(
            "this report was produced without tracing; rerun with "
            "SchedulerConfig(trace=True) (serve-sim: --trace-output)"
        )
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": _SCHED_PID,
         "args": {"name": "scheduler"}},
    ]

    # -- control plane: one track per request -------------------------- #
    by_req: Dict[int, List[dict]] = {}
    for entry in report.trace_log:
        by_req.setdefault(entry.get("req_id", -1), []).append(entry)

    for rec in report.records:
        tid = f"req#{rec.req_id}"
        end = rec.finish_ns if rec.finish_ns >= 0 else rec.arrival_ns
        events.append(
            {
                "name": f"{rec.algorithm} {rec.status.value}",
                "cat": "request",
                "ph": "X",
                "ts": _ns_to_us(rec.arrival_ns),
                "dur": _ns_to_us(max(0.0, end - rec.arrival_ns)),
                "pid": _SCHED_PID,
                "tid": tid,
                "args": {
                    "trace_id": rec.trace_id,
                    "req_id": rec.req_id,
                    "graph": rec.graph,
                    "layout": rec.layout,
                    "priority": rec.priority,
                    "attempts": rec.attempts,
                    "status": rec.status.value,
                    "latency_ns": rec.latency_ns,
                    "reason": rec.reason,
                },
            }
        )
        flow = _flow_id(rec.trace_id)
        dispatches = [e for e in by_req.get(rec.req_id, []) if e["kind"] == "dispatch"]
        if dispatches:
            events.append(
                {"name": "request", "cat": "flow", "ph": "s", "id": flow,
                 "pid": _SCHED_PID, "tid": tid, "ts": _ns_to_us(rec.arrival_ns)}
            )
        for entry in by_req.get(rec.req_id, []):
            if entry["kind"] == "dispatch":
                args = {k: v for k, v in entry.items() if k not in ("kind", "ts_ns")}
                events.append(
                    {
                        "name": f"dispatch#{entry.get('attempt', '?')}",
                        "cat": "dispatch",
                        "ph": "X",
                        "ts": _ns_to_us(entry["ts_ns"]),
                        "dur": _ns_to_us(entry.get("effective_ns", 0.0)),
                        "pid": _SCHED_PID,
                        "tid": tid,
                        "args": args,
                    }
                )
                # flow step on the worker that served this attempt, bound
                # where the attempt's service.request span starts
                worker_ts = entry.get("worker_ts_ns", -1.0)
                if worker_ts >= 0:
                    events.append(
                        {
                            "name": "request",
                            "cat": "flow",
                            "ph": "t",
                            "id": flow,
                            "pid": _WORKER_PID0 + entry.get("worker", 0),
                            "tid": f"worker{entry.get('worker', 0)}",
                            "ts": _ns_to_us(worker_ts),
                        }
                    )
            elif entry["kind"] in _INSTANT_KINDS:
                args = {k: v for k, v in entry.items() if k not in ("kind", "ts_ns")}
                events.append(
                    {
                        "name": entry["kind"],
                        "cat": "lifecycle",
                        "ph": "i",
                        "s": "t",
                        "ts": _ns_to_us(entry["ts_ns"]),
                        "pid": _SCHED_PID,
                        "tid": tid,
                        "args": args,
                    }
                )
        if dispatches:
            events.append(
                {"name": "request", "cat": "flow", "ph": "f", "bp": "e", "id": flow,
                 "pid": _SCHED_PID, "tid": tid, "ts": _ns_to_us(end)}
            )

    # -- workers: one process per traced queue ------------------------- #
    for wid, device_name, tracer in report.tracers:
        pid = _WORKER_PID0 + wid
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": f"worker{wid} ({device_name})"}}
        )
        events.extend(tracer_events(tracer, pid=pid, track=f"worker{wid}"))
    return events


def export_service_trace(
    report: "ServiceReport", path: Union[str, Path]
) -> Path:
    """Write the merged serving trace as a Perfetto-loadable JSON file."""
    path = Path(path)
    payload = {
        "traceEvents": service_trace_events(report),
        "displayTimeUnit": "ms",
        "otherData": {
            "requests": len(report.records),
            "traced_workers": len(report.tracers),
            "makespan_ns": report.makespan_ns,
            "control_events": len(report.trace_log or []),
        },
    }
    path.write_text(json.dumps(payload, indent=1))
    return path
