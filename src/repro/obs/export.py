"""Perfetto/chrome-trace export of the span tree.

Emits the hierarchy as nested ``B``/``E`` (duration begin/end) events —
one track (``tid``) per top-level span, so two algorithm runs on one
queue land on separate timelines — with each kernel as an ``X``
(complete) event nested inside its span, and ``C`` (counter) tracks for
every registry metric plus the memory manager's bytes-in-use samples.

This is the one trace exporter: attach a tracer with
:meth:`Queue.enable_tracing` before the run, then call
:func:`export_trace`.

Load the JSON in ``ui.perfetto.dev`` or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from repro.obs.span import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue

_PID = 1


def _ns_to_us(ns: float) -> float:
    return round(ns / 1000.0, 4)


def _kernel_args(event) -> dict:
    cost = event.cost
    return {
        "seq": event.seq,
        "compute_ns": round(cost.compute_ns, 1),
        "memory_ns": round(cost.memory_ns, 1),
        "launch_ns": round(cost.launch_ns, 1),
        "dram_bytes": cost.dram_bytes,
        "l1_hit_rate": round(cost.l1_hit_rate, 4),
        "occupancy": round(cost.occupancy, 4),
    }


def _span_args(span: Span) -> dict:
    args = {
        "kernels": span.kernel_count(),
        "kernel_ns": round(span.kernel_ns(), 1),
    }
    if span.arg is not None:
        args["arg"] = span.arg
    if span.scan_hits or span.scan_misses:
        args["scan_hits"] = span.scan_hits
        args["scan_misses"] = span.scan_misses
    for name, value in span.attrs.items():
        args[name] = value
    for name, value in span.gauges.items():
        args[name] = value
    return args


def _emit_kernel(event, track: str, out: List[dict], pid: int = _PID) -> None:
    out.append(
        {
            "name": event.name,
            "cat": "kernel",
            "ph": "X",
            "ts": _ns_to_us(event.ts_ns),
            "dur": _ns_to_us(event.dur_ns),
            "pid": pid,
            "tid": track,
            "args": _kernel_args(event),
        }
    )


def _emit_span(span: Span, track: str, out: List[dict], pid: int = _PID) -> None:
    """Emit one span as B ... (children/kernels in time order) ... E."""
    out.append(
        {
            "name": span.label,
            "cat": "span",
            "ph": "B",
            "ts": _ns_to_us(span.start_ns),
            "pid": pid,
            "tid": track,
            "args": _span_args(span),
        }
    )
    # children and kernels interleave on the timeline; both lists are
    # already individually time-ordered, so merge by start timestamp
    items = [("span", c.start_ns, c) for c in span.children]
    items += [("kernel", k.ts_ns, k) for k in span.kernels]
    items.sort(key=lambda t: t[1])
    for kind, _, item in items:
        if kind == "span":
            _emit_span(item, track, out, pid)
        else:
            _emit_kernel(item, track, out, pid)
    end = span.end_ns if span.end_ns is not None else span.start_ns
    out.append(
        {
            "name": span.label,
            "cat": "span",
            "ph": "E",
            "ts": _ns_to_us(end),
            "pid": pid,
            "tid": track,
        }
    )


def _emit_counter(
    name: str, ts_ns: float, value: float, out: List[dict], pid: int = _PID
) -> None:
    out.append(
        {
            "name": name,
            "cat": "counter",
            "ph": "C",
            "ts": _ns_to_us(ts_ns),
            "pid": pid,
            "args": {name: value},
        }
    )


def _series_with_ts_fallback(samples) -> List[tuple]:
    """(ts_ns, value) pairs with a monotonic fallback for missing clocks.

    Samples recorded without a timestamp carry the default ``ts_ns=0.0``;
    emitting them verbatim collapses the whole series onto t=0, which
    renders as a single spike.  Instead, a zero-timestamp sample after
    the first inherits the previous emitted timestamp plus one ns — a
    monotonic sequence that preserves the recording order (a genuine
    sample *at* t=0 can only be the first one, which stays put).
    """
    out: List[tuple] = []
    last = 0.0
    for i, (ts, value) in enumerate(samples):
        if ts == 0.0 and i > 0:
            ts = last + 1.0
        out.append((ts, value))
        last = ts
    return out


def trace_events(tracer: SpanTracer, pid: int = _PID, track: Optional[str] = None) -> List[dict]:
    """Build the chrome-trace event list from a tracer's span tree.

    By default every top-level span gets its own track (``tid``); pass
    ``track`` to keep them on one named track instead (the service
    exporter uses one track per worker), and ``pid`` to place the whole
    tree in its own process group of a merged trace.
    """
    events: List[dict] = []
    for top in tracer.root.children:
        _emit_span(top, track if track is not None else top.label, events, pid)
    # kernels submitted outside any span (graph build, warmup) get their
    # own track so the span tracks stay clean
    for kernel in tracer.root.kernels:
        _emit_kernel(kernel, f"{track}/queue" if track is not None else "queue", events, pid)
    for metric in tracer.metrics.counters() + tracer.metrics.gauges():
        series = [(s.ts_ns, s.value) for s in metric.samples]
        for ts_ns, value in _series_with_ts_fallback(series):
            _emit_counter(metric.name, ts_ns, value, events, pid)
    for hist in tracer.metrics.histograms():
        series = [(s.ts_ns, s.value) for s in hist.samples]
        for ts_ns, value in _series_with_ts_fallback(series):
            _emit_counter(hist.name, ts_ns, value, events, pid)
    for ts_ns, total_bytes in _series_with_ts_fallback(tracer.memory_samples):
        _emit_counter("memory.bytes_in_use", ts_ns, total_bytes, events, pid)
    return events


def export_trace(
    tracer: SpanTracer,
    path: Union[str, Path],
    queue: Optional["Queue"] = None,
) -> Path:
    """Write the tracer's span tree as a Perfetto-loadable JSON file."""
    path = Path(path)
    other = {
        "modeled_ns": tracer.cursor_ns,
        "spans": sum(1 for _ in tracer.root.walk()) - 1,
        "memory_peak_bytes": tracer.memory_peak_bytes,
    }
    if queue is not None:
        other["device"] = queue.device.name
        other["total_simulated_ns"] = queue.elapsed_ns
    payload = {
        "traceEvents": trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    path.write_text(json.dumps(payload, indent=1))
    return path
