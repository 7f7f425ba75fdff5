"""Counters, gauges, and histograms on the modeled timeline.

A :class:`MetricsRegistry` holds named time series sampled while an
algorithm runs under tracing.  Three kinds, with Prometheus-style rules:

* **counter** — monotonically non-decreasing (``inc`` with a
  non-negative delta, or ``observe_total`` with an externally maintained
  running total).  Regressions raise :class:`MetricsError` immediately:
  a counter that goes backwards is an instrumentation bug, and the test
  suite pins this.
* **gauge** — a point-in-time value that may move either way (frontier
  occupancy, PageRank residual, bytes in use).
* **histogram** — a latency/size distribution over fixed log-spaced ns
  buckets, with **exemplars**: each bucket remembers the ``trace_id`` of
  its worst sample, so a reported ``p99`` links back to the exact
  request trace that produced it.  Quantiles are nearest-rank over the
  raw samples — the same rule as ``bench.reporting.percentile`` — so a
  histogram answer and a latency-summary answer over identical samples
  are bit-equal (pinned by ``tests/obs/test_histogram.py``).

Timestamps are modeled nanoseconds — the span tracer's kernel cursor —
so every sample lands on the same timeline the trace exporter draws.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


class MetricsError(ValueError):
    """A metric was used inconsistently (kind clash, counter regression)."""


@dataclass
class MetricSample:
    """One (modeled-time, value) point of a metric series.

    ``trace_id`` is only populated for histogram samples, where it links
    the observation back to the request trace that produced it.
    """

    ts_ns: float
    value: float
    trace_id: str = ""


class Metric:
    """One named series: a counter or a gauge."""

    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.samples: List[MetricSample] = []

    @property
    def value(self) -> float:
        """Latest sampled value (0.0 before the first sample)."""
        return self.samples[-1].value if self.samples else 0.0

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(timestamps_ns, values) arrays for plotting/export."""
        ts = np.array([s.ts_ns for s in self.samples], dtype=np.float64)
        vals = np.array([s.value for s in self.samples], dtype=np.float64)
        return ts, vals


#: fixed log-spaced histogram bucket upper bounds in ns: four per decade
#: from 100 ns to 10 s, so every registry histogram merges bucket-wise
#: with every other.  Values above the last bound land in the +inf
#: overflow bucket.
HISTOGRAM_BUCKET_BOUNDS_NS: Tuple[float, ...] = tuple(
    10.0 ** (2.0 + i / 4.0) for i in range(33)
)


def nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list; 0.0 when empty.

    The one rank formula (``rank = max(1, ceil(q/100 * n))``):
    :func:`repro.bench.reporting.percentile` sorts its samples and calls
    this, so histogram quantiles and latency summaries agree bit-for-bit
    on the same samples.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Exemplar:
    """The sample a bucket (or quantile) points back to: its value, when
    it happened on the modeled clock, and the trace it belongs to."""

    value: float
    ts_ns: float
    trace_id: str


class Histogram(Metric):
    """A distribution over :data:`HISTOGRAM_BUCKET_BOUNDS_NS`.

    Keeps three views of the same observations:

    * per-bucket **counts** (len = bounds + 1 overflow), mergeable with
      any other registry histogram because the bounds are fixed;
    * per-bucket **exemplars** — the *worst* (largest) sample that
      landed in each bucket, carrying its ``trace_id``;
    * the raw **samples**, so :meth:`quantile` can give exact
      nearest-rank answers (and exact exemplars) rather than
      bucket-resolution estimates.
    """

    __slots__ = ("counts", "bucket_exemplars", "sum")

    def __init__(self, name: str, kind: str = "histogram"):
        super().__init__(name, "histogram")
        self.counts: List[int] = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_NS) + 1)
        self.bucket_exemplars: List[Optional[Exemplar]] = [None] * len(self.counts)
        self.sum: float = 0.0

    # -- recording ------------------------------------------------------ #
    @staticmethod
    def bucket_index(value: float) -> int:
        """Index of the bucket whose upper bound first covers ``value``."""
        return bisect_left(HISTOGRAM_BUCKET_BOUNDS_NS, value)

    def observe(self, value: float, ts_ns: float = 0.0, trace_id: str = "") -> None:
        value = float(value)
        idx = self.bucket_index(value)
        self.counts[idx] += 1
        self.sum += value
        self.samples.append(MetricSample(ts_ns, value, trace_id))
        worst = self.bucket_exemplars[idx]
        if worst is None or (value, ts_ns, trace_id) > (worst.value, worst.ts_ns, worst.trace_id):
            self.bucket_exemplars[idx] = Exemplar(value, ts_ns, trace_id)

    # -- reading -------------------------------------------------------- #
    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return self.sum / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile (``q`` in [0, 100]) over the raw
        samples; 0.0 when the histogram is empty."""
        return nearest_rank(sorted(s.value for s in self.samples), q)

    def quantile_exemplar(self, q: float) -> Optional[Exemplar]:
        """The exact sample sitting at the nearest-rank position.

        Ties on value break deterministically by (ts, trace_id), so the
        reported exemplar is a stable function of the observations.
        """
        if not self.samples:
            return None
        ordered = sorted(self.samples, key=lambda s: (s.value, s.ts_ns, s.trace_id))
        rank = max(1, -(-int(q * len(ordered)) // 100))
        s = ordered[min(rank, len(ordered)) - 1]
        return Exemplar(s.value, s.ts_ns, s.trace_id)

    def exemplars(self) -> Dict[int, Exemplar]:
        """Non-empty buckets' worst samples, keyed by bucket index."""
        return {i: e for i, e in enumerate(self.bucket_exemplars) if e is not None}

    # -- merging -------------------------------------------------------- #
    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two histograms (associative, identity = empty)."""
        out = Histogram(self.name)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.sum = self.sum + other.sum
        out.samples = list(self.samples) + list(other.samples)
        for i in range(len(out.counts)):
            a, b = self.bucket_exemplars[i], other.bucket_exemplars[i]
            if a is None or b is None:
                out.bucket_exemplars[i] = a if b is None else b
            else:
                out.bucket_exemplars[i] = max(
                    a, b, key=lambda e: (e.value, e.ts_ns, e.trace_id)
                )
        return out


class MetricsRegistry:
    """Named counters, gauges and histograms, each a timestamped series."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------ #
    def _metric(self, name: str, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            cls = Histogram if kind == "histogram" else Metric
            metric = self._metrics[name] = cls(name, kind)
        elif metric.kind != kind:
            raise MetricsError(
                f"metric {name!r} is a {metric.kind}, not a {kind}: it was "
                f"first registered as a {metric.kind} and a series cannot "
                f"change kind — use a different name for the {kind}"
            )
        return metric

    def inc(self, name: str, delta: float = 1.0, ts_ns: float = 0.0) -> float:
        """Add ``delta`` (>= 0) to a counter; returns the new total."""
        if delta < 0:
            raise MetricsError(
                f"counter {name!r} increment must be non-negative, got {delta}"
            )
        metric = self._metric(name, "counter")
        total = metric.value + delta
        metric.samples.append(MetricSample(ts_ns, total))
        return total

    def observe_total(self, name: str, total: float, ts_ns: float = 0.0) -> None:
        """Record the running total of an externally maintained counter.

        Used for counters the registry does not own (a queue's frontier
        scan-cache hit/miss totals): the tracer samples the absolute
        value, and monotonicity is still enforced.
        """
        metric = self._metric(name, "counter")
        if total < metric.value:
            raise MetricsError(
                f"counter {name!r} went backwards: {metric.value} -> {total}"
            )
        metric.samples.append(MetricSample(ts_ns, float(total)))

    def gauge(self, name: str, value: float, ts_ns: float = 0.0) -> None:
        """Record a point-in-time gauge sample."""
        self._metric(name, "gauge").samples.append(MetricSample(ts_ns, float(value)))

    def observe(
        self, name: str, value: float, ts_ns: float = 0.0, trace_id: str = ""
    ) -> None:
        """Record one histogram observation (with an optional exemplar)."""
        self._metric(name, "histogram").observe(value, ts_ns, trace_id)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty if absent."""
        return self._metric(name, "histogram")

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def counters(self) -> List[Metric]:
        return [m for _, m in sorted(self._metrics.items()) if m.kind == "counter"]

    def gauges(self) -> List[Metric]:
        return [m for _, m in sorted(self._metrics.items()) if m.kind == "gauge"]

    def histograms(self) -> List[Histogram]:
        return [m for _, m in sorted(self._metrics.items()) if m.kind == "histogram"]

    def value(self, name: str) -> float:
        """Latest value of ``name`` (0.0 when never sampled)."""
        metric = self._metrics.get(name)
        return metric.value if metric is not None else 0.0


class ScanStats:
    """Hit/miss totals for one queue's epoch-memoized frontier scans.

    Incremented on every scan-shaped query (``count`` /
    ``active_elements`` / ``nonzero_words`` / ``compute_offsets``, see
    :mod:`repro.frontier.base`) of a frontier on the owning queue: a
    *hit* served a memoized value, a *miss* rescanned the backing storage
    (including every query while memoization is disabled).  A traced
    queue counts on its tracer's instance, which the tracer samples per
    span, so an exported trace depends on its own run alone; the
    strict-mode coherence replay bypasses ``_memoized`` and therefore
    never perturbs them.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple:
        return (self.hits, self.misses)
