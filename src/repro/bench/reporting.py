"""Plain-text table/series rendering for the experiment outputs."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import nearest_rank


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (ignores non-positive values, like the paper's
    speedup summaries must)."""
    vals = np.asarray([v for v in values if v and v > 0], dtype=np.float64)
    if vals.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(vals))))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input.

    Nearest-rank rather than interpolating: every reported latency is an
    actually observed one, and the result is bitwise-deterministic — what
    the service golden files and determinism tests require.  The rank
    formula is :func:`repro.obs.metrics.nearest_rank`'s, so latency
    summaries and histogram quantiles agree on the same samples.
    """
    return nearest_rank(sorted(float(v) for v in values), q)


def latency_summary(values_ns: Iterable[float]) -> dict:
    """Count + p50/p95/p99/max/mean (ms) of a latency sample, per the
    serving-layer reporting convention (modeled ns in, ms out)."""
    vals = [float(v) for v in values_ns]
    if not vals:
        return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0, "mean_ms": 0.0}
    return {
        "count": len(vals),
        "p50_ms": ns_to_ms(percentile(vals, 50)),
        "p95_ms": ns_to_ms(percentile(vals, 95)),
        "p99_ms": ns_to_ms(percentile(vals, 99)),
        "max_ms": ns_to_ms(max(vals)),
        "mean_ms": ns_to_ms(sum(vals) / len(vals)),
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            cols[i].append(_fmt(cell))
    widths = [max(len(c) for c in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    n_rows = len(rows)
    for r in range(n_rows):
        lines.append("  ".join(_fmt(rows[r][i]).rjust(widths[i]) if i else _fmt(rows[r][i]).ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


def ns_to_ms(ns: float) -> float:
    return ns / 1e6


def bar_series(label: str, values: Sequence[float], names: Sequence[str], unit: str = "ms") -> str:
    """Render one bar-chart series as text (for figure-style output)."""
    peak = max(values) if values else 1.0
    lines = [label]
    for name, v in zip(names, values):
        bar = "#" * max(1, int(40 * v / peak)) if peak else ""
        lines.append(f"  {name:>12s} {v:10.3f} {unit} {bar}")
    return "\n".join(lines)


def format_iteration_breakdown(rows: Sequence[dict], title: str = "") -> str:
    """Render :func:`repro.obs.iteration_breakdown` rows as an ASCII table.

    One line per algorithm iteration (``*.iter`` / ``*.bucket`` span):
    modeled start time, kernel time attributed to the iteration's
    subtree, kernel count, frontier size/occupancy gauges, and the
    span's scan-cache hit/miss deltas.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no iteration spans recorded)"
    table_rows = []
    for r in rows:
        gauges = r.get("gauges", {})
        table_rows.append(
            [
                r["span"],
                ns_to_ms(r["start_ns"]),
                ns_to_ms(r["kernel_ns"]),
                r["kernels"],
                int(gauges.get("frontier.size", 0)),
                gauges.get("frontier.occupancy", 0.0),
                r.get("scan_hits", 0),
                r.get("scan_misses", 0),
            ]
        )
    return format_table(
        ["iteration", "start_ms", "kernel_ms", "kernels", "front.size", "front.occ", "scan.hit", "scan.miss"],
        table_rows,
        title=title,
    )


def grouped_bars(
    groups: Sequence[str],
    series: Sequence[str],
    values,  # values[group][series] -> float
    unit: str = "ms",
    width: int = 30,
) -> str:
    """Render grouped horizontal bars (one block per group, one bar per
    series) — the text analogue of the paper's Figure 8/10 bar charts."""
    peak = max(
        (values[g][s] for g in groups for s in series if values[g].get(s)), default=1.0
    )
    lines = []
    for g in groups:
        lines.append(f"{g}:")
        for s in series:
            v = values[g].get(s)
            if v is None:
                lines.append(f"  {s:>10s} {'-':>10}")
                continue
            bar = "#" * max(1, int(width * v / peak)) if peak else ""
            lines.append(f"  {s:>10s} {v:10.4f} {unit} {bar}")
    return "\n".join(lines)
