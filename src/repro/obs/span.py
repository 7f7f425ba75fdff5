"""Hierarchical span tracing over the modeled kernel timeline.

A :class:`SpanTracer` maintains a stack of open :class:`Span` objects and
a **cursor** in modeled nanoseconds.  Spans are opened via
``queue.span("bfs.iter", k)`` (a context manager); every
``Queue.submit`` reports its kernel to the tracer, which appends a
:class:`KernelEvent` to the innermost open span and advances the cursor
by the kernel's modeled time.  The result is the nesting the paper's NCU
timelines show — ``algorithm > iteration > operator > kernel`` — plus
per-span scan-cache deltas and a metrics registry sampled on the same
timeline.

Tracing is observational: the cost model never sees the tracer, so
modeled times are bit-identical with tracing on or off (pinned by
``tests/obs/test_zero_cost.py``).  A queue without a tracer hands out the
shared :data:`NULL_SPAN` no-op context manager, so the disabled path
costs one attribute check per span and per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, ScanStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.perfmodel.cost import KernelCost
    from repro.sycl.memory import MemoryEvent


@dataclass
class KernelEvent:
    """One kernel launch placed on the modeled timeline."""

    name: str
    seq: int
    ts_ns: float
    dur_ns: float
    #: full cost-model output
    cost: "KernelCost"


@dataclass
class Span:
    """One node of the span tree.

    ``arg`` carries the span's instance argument (iteration number,
    source vertex, bucket index); ``gauges`` holds the values sampled
    while this span was innermost; ``scan_hits``/``scan_misses`` are the
    frontier scan-cache deltas over the span's lifetime (children
    included).
    """

    name: str
    arg: Optional[object] = None
    start_ns: float = 0.0
    end_ns: Optional[float] = None
    parent: Optional["Span"] = field(default=None, repr=False)
    children: List["Span"] = field(default_factory=list)
    kernels: List[KernelEvent] = field(default_factory=list)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: free-form attributes (trace_id, attempt, worker …) carried into
    #: the exported event's args — the trace-context propagation channel
    attrs: Dict[str, object] = field(default_factory=dict)
    scan_hits: int = 0
    scan_misses: int = 0

    @property
    def label(self) -> str:
        """Display name: ``bfs.iter#3`` for (name='bfs.iter', arg=3)."""
        return self.name if self.arg is None else f"{self.name}#{self.arg}"

    @property
    def duration_ns(self) -> float:
        """Modeled time covered by the span (0.0 while still open)."""
        return (self.end_ns - self.start_ns) if self.end_ns is not None else 0.0

    def kernel_ns(self, recursive: bool = True) -> float:
        """Total modeled kernel time attributed to this span (and children)."""
        total = sum(k.dur_ns for k in self.kernels)
        if recursive:
            total += sum(c.kernel_ns(True) for c in self.children)
        return total

    def kernel_count(self, recursive: bool = True) -> int:
        total = len(self.kernels)
        if recursive:
            total += sum(c.kernel_count(True) for c in self.children)
        return total

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over this span and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (self included) with the given name."""
        return [s for s in self.walk() if s.name == name]


class _SpanContext:
    """Reusable context manager binding one Span to its tracer."""

    __slots__ = ("_tracer", "_span", "_scan0")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._scan0 = (0, 0)

    def __enter__(self) -> Span:
        self._scan0 = self._tracer.scan_stats.snapshot()
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        hits0, misses0 = self._scan0
        stats = self._tracer.scan_stats
        self._span.scan_hits = stats.hits - hits0
        self._span.scan_misses = stats.misses - misses0
        self._tracer._pop(self._span)
        return False


class _NullSpan:
    """No-op context manager: what ``queue.span`` returns when tracing
    is off.  Stateless and shared, so the disabled hot path allocates
    nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: the shared disabled-tracing span (see Queue.span)
NULL_SPAN = _NullSpan()


class SpanTracer:
    """Span stack + modeled-time cursor + metrics registry for one queue."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.root = Span(name="<root>")
        self._stack: List[Span] = [self.root]
        #: modeled-time cursor: sum of the durations of all kernels seen
        self.cursor_ns: float = 0.0
        self.metrics = metrics or MetricsRegistry()
        #: (ts_ns, bytes_in_use) samples from the MemoryManager hook
        self.memory_samples: List[tuple] = []
        #: high-water mark of bytes_in_use observed while tracing
        self.memory_peak_bytes: int = 0
        #: frontier scan-cache totals: every queue this tracer is attached
        #: to counts its scans here (Queue.enable_tracing)
        self.scan_stats = ScanStats()

    # -- span stack ----------------------------------------------------- #
    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def span(
        self,
        name: str,
        arg: Optional[object] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> _SpanContext:
        """Context manager opening a child span of the current one."""
        span = Span(name=name, arg=arg, start_ns=self.cursor_ns, parent=self.current)
        if attrs:
            span.attrs.update(attrs)
        self.current.children.append(span)
        return _SpanContext(self, span)

    def _push(self, span: Span) -> None:
        span.start_ns = self.cursor_ns
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        popped = self._stack.pop()
        assert popped is span, f"span stack corrupted: closed {popped.label}, expected {span.label}"
        span.end_ns = self.cursor_ns
        if span.scan_hits or span.scan_misses:
            self.metrics.observe_total("frontier.scan_hits", self.scan_stats.hits, self.cursor_ns)
            self.metrics.observe_total("frontier.scan_misses", self.scan_stats.misses, self.cursor_ns)

    # -- runtime hooks --------------------------------------------------- #
    def on_kernel(self, name: str, seq: int, cost: "KernelCost") -> None:
        """Queue.submit hook: attribute one kernel to the open span."""
        dur = cost.time_ns
        self.current.kernels.append(KernelEvent(name, seq, self.cursor_ns, dur, cost))
        self.cursor_ns += dur

    def on_memory(self, event: "MemoryEvent") -> None:
        """MemoryManager hook: sample bytes-in-use on the modeled timeline."""
        self.memory_samples.append((self.cursor_ns, event.total_bytes))
        if event.total_bytes > self.memory_peak_bytes:
            self.memory_peak_bytes = event.total_bytes

    # -- metrics conveniences -------------------------------------------- #
    def gauge(self, name: str, value: float) -> None:
        """Sample a gauge at the cursor; also stored on the current span."""
        self.metrics.gauge(name, value, self.cursor_ns)
        self.current.gauges[name] = float(value)

    def inc(self, name: str, delta: float = 1.0) -> None:
        """Increment a counter at the cursor."""
        self.metrics.inc(name, delta, self.cursor_ns)

    def sample_frontier(self, frontier, n_elements: Optional[int] = None) -> None:
        """Sample the per-iteration frontier statistics (size, occupancy).

        The count() is epoch-memoized, so on the driver's hot path this
        reuses the scan the loop condition already performed.
        """
        size = frontier.count()
        n = n_elements if n_elements is not None else frontier.n_elements
        self.gauge("frontier.size", size)
        self.gauge("frontier.occupancy", size / n if n else 0.0)


#: span-name suffixes the breakdown treats as "one algorithm iteration"
ITERATION_SUFFIXES = (".iter", ".bucket")


def iteration_breakdown(tracer: Optional[SpanTracer]) -> List[dict]:
    """Flatten the span tree into one row per algorithm iteration.

    Each row carries the iteration span's kernel totals, gauges, and
    scan-cache deltas — the per-iteration view ``MeasureResult`` and the
    ``trace`` CLI report.

    A disabled tracer (``None`` — tracing was never enabled) or one with
    no completed root spans yields ``[]`` rather than assuming a
    populated tree.
    """
    if tracer is None or not tracer.root.children:
        return []
    rows: List[dict] = []
    for span in tracer.root.walk():
        if not span.name.endswith(ITERATION_SUFFIXES):
            continue
        rows.append(
            {
                "span": span.label,
                "name": span.name,
                "iteration": span.arg,
                "start_ns": span.start_ns,
                "kernel_ns": span.kernel_ns(),
                "kernels": span.kernel_count(),
                "scan_hits": span.scan_hits,
                "scan_misses": span.scan_misses,
                "gauges": dict(span.gauges),
            }
        )
    return rows
