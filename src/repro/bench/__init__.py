"""Benchmark harness reproducing the paper's evaluation (Section 5).

One function per table/figure, each returning structured result rows and
able to print the same table/series the paper reports:

* :func:`~repro.bench.experiments.table3_datasets` — dataset statistics;
* :func:`~repro.bench.experiments.table4_hardware` — device profiles;
* :func:`~repro.bench.experiments.fig7_ablation` — bitmap optimization
  speedups (MSI / CF / 2LB / All) on Indochina BFS;
* :func:`~repro.bench.experiments.table5_hw_metrics` — peak L1 hit rate
  and occupancy during BFS advances, per framework per dataset;
* :func:`~repro.bench.experiments.fig8_comparison` — median runtimes of
  BC/BFS/CC/SSSP across frameworks on the V100S profile;
* :func:`~repro.bench.experiments.fig9_memory` — device-memory traces
  during BFS on CA / Hollywood / Indochina;
* :func:`~repro.bench.experiments.table6_speedups` — SYgraph speedups
  with (WPP) and without (WOP) preprocessing, including projected OOMs;
* :func:`~repro.bench.experiments.fig10_portability` — SYgraph across
  V100S / MAX1100 (LevelZero + OpenCL) / MI100.

:mod:`repro.bench.ledger` holds the BENCH ledger (``BENCH_ledger.json``):
every modeled result over algorithm × layout × graph × {fused, devices},
one record per case, recomputed by ``python -m repro slo``.

Environment knobs: ``REPRO_SCALE`` (tiny/small/medium, default small),
``REPRO_SOURCES`` (sources per measurement, default 3 — the paper uses
200; raise it when you have the time budget).
"""

from repro.bench.harness import MeasureResult, measure, median_ns, run_sources
from repro.bench.reporting import format_table, geomean

__all__ = [
    "MeasureResult",
    "measure",
    "median_ns",
    "run_sources",
    "format_table",
    "geomean",
]
