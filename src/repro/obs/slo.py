"""``python -m repro slo`` — the SLO / regression gate.

Evaluates a serving run and the BENCH ledger against declarative
thresholds and exits non-zero on any violation; with ``--slo-output``
it also writes its result JSON (CI uploads it as an artifact):

* **p99 latency** of completed requests (modeled ms) — read from the
  run's ``service.latency`` histogram, whose quantiles agree bit-for-bit
  with :func:`repro.bench.reporting.percentile`;
* **shed rate** — shed / admitted (graceful degradation must stay rare);
* **spot-check failures** and **failed requests** — a served-wrong
  result or an exhausted retry budget is a correctness event, default
  budget zero;
* **modeled drift** — every case of the ``--baseline`` ledger
  (``BENCH_ledger.json``, written by ``benchmarks/trajectory.py``) is
  recomputed in-process with the file's seed, and the worst relative
  movement of any numeric field (modeled ns, iterations, wire and
  id-list bytes) is gated.  The ledger is deterministic, so the default
  allowed drift is **exactly 0%**: any movement means the cost model,
  an algorithm, fusion or the BSP engine changed and the ledger needs
  regenerating on purpose.  A changed result digest is a violation with
  no budget.  A missing baseline skips the check;
* **chaos corruption** — with ``--chaos-report``, the digest
  divergences and spot-check failures of a ``chaos --report`` JSON.

The gate runs the serving simulation itself (smoke preset, histograms
on) unless ``--slo-report`` points at a ``serve-sim --report`` JSON to
evaluate instead.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List


@dataclass
class SLOThresholds:
    """Declarative gate thresholds (violate any one and the gate fails)."""

    #: p99 completed-request latency budget, modeled ms
    max_p99_ms: float = 50.0
    #: shed / admitted budget (0.05 = up to 5% graceful degradation)
    max_shed_rate: float = 0.05
    #: differential spot-check divergences allowed (correctness: zero)
    max_spot_check_failures: int = 0
    #: FAILED requests allowed (retry exhaustion or served-wrong result)
    max_failed: int = 0
    #: worst movement of any ledger case's numeric field vs the
    #: baseline, percent.  The ledger is deterministic — the default
    #: tolerance is exactly zero.
    max_modeled_drift_pct: float = 0.0
    #: chaos-matrix corruption events allowed (result-digest divergences
    #: plus spot-check failures across every scenario of a
    #: ``chaos --report`` JSON).  Degradation under faults is fine;
    #: silent corruption is a correctness event, default budget zero.
    max_chaos_divergences: int = 0


def evaluate_slo(summary: dict, thresholds: SLOThresholds) -> List[str]:
    """Pure threshold check: summary measurements → violation strings.

    ``summary`` keys (missing keys are simply not checked):
    ``p99_ms``, ``shed_rate``, ``spot_check_failures``, ``failed``,
    ``modeled_drift_pct``, ``digest_changes``, ``chaos_divergences``.
    """
    v: List[str] = []
    if "p99_ms" in summary and summary["p99_ms"] > thresholds.max_p99_ms:
        v.append(
            f"p99 latency {summary['p99_ms']:.4f} ms exceeds budget "
            f"{thresholds.max_p99_ms:.4f} ms"
        )
    if "shed_rate" in summary and summary["shed_rate"] > thresholds.max_shed_rate:
        v.append(
            f"shed rate {summary['shed_rate']:.4f} exceeds budget "
            f"{thresholds.max_shed_rate:.4f}"
        )
    if (
        "spot_check_failures" in summary
        and summary["spot_check_failures"] > thresholds.max_spot_check_failures
    ):
        v.append(
            f"{summary['spot_check_failures']} spot-check failure(s) exceed budget "
            f"{thresholds.max_spot_check_failures}"
        )
    if "failed" in summary and summary["failed"] > thresholds.max_failed:
        v.append(
            f"{summary['failed']} FAILED request(s) exceed budget {thresholds.max_failed}"
        )
    if (
        "modeled_drift_pct" in summary
        and abs(summary["modeled_drift_pct"]) > thresholds.max_modeled_drift_pct
    ):
        v.append(
            f"ledger {summary.get('drift_field') or 'modeled result'} drifted "
            f"{summary['modeled_drift_pct']:+.4f}% vs baseline "
            f"(allowed ±{thresholds.max_modeled_drift_pct:.4f}%)"
        )
    if summary.get("digest_changes"):
        v.append(
            f"{len(summary['digest_changes'])} ledger case(s) changed result digest: "
            + ", ".join(summary["digest_changes"])
        )
    if (
        "chaos_divergences" in summary
        and summary["chaos_divergences"] > thresholds.max_chaos_divergences
    ):
        v.append(
            f"{summary['chaos_divergences']} chaos corruption event(s) "
            f"(digest divergences + spot-check failures under injected "
            f"faults) exceed budget {thresholds.max_chaos_divergences}"
        )
    return v


def add_slo_arguments(parser) -> None:
    """Attach the ``slo`` subcommand's flags to the main parser."""
    group = parser.add_argument_group("slo options (experiment = 'slo')")
    group.add_argument(
        "--baseline", default="BENCH_ledger.json", metavar="PATH",
        help="BENCH ledger whose every case the drift check recomputes "
        "(default BENCH_ledger.json; skipped when absent)",
    )
    group.add_argument(
        "--slo-report", default=None, metavar="PATH",
        help="evaluate an existing `serve-sim --report` JSON instead of "
        "running the smoke serving simulation in-process",
    )
    group.add_argument(
        "--slo-output", default=None, metavar="PATH",
        help="write the gate's result JSON here (default: not written)",
    )
    group.add_argument("--max-p99-ms", type=float, default=None, help="p99 latency budget, modeled ms")
    group.add_argument("--max-shed-rate", type=float, default=None, help="shed/admitted budget")
    group.add_argument(
        "--max-spot-check-failures", type=int, default=None,
        help="spot-check divergence budget (default 0)",
    )
    group.add_argument(
        "--max-failed", type=int, default=None, help="FAILED request budget (default 0)"
    )
    group.add_argument(
        "--max-drift-pct", type=float, default=None,
        help="allowed drift of any ledger case's numeric field, percent (default 0)",
    )
    group.add_argument(
        "--skip-drift", action="store_true",
        help="skip the ledger recomputation (faster; serving SLOs only)",
    )
    group.add_argument(
        "--chaos-report", default=None, metavar="PATH",
        help="also gate a `chaos --report` JSON: total digest "
        "divergences + spot-check failures across its scenarios must "
        "stay within --max-chaos-divergences (skipped when absent)",
    )
    group.add_argument(
        "--max-chaos-divergences", type=int, default=None,
        help="chaos corruption budget (default 0)",
    )


def _thresholds_from_args(args) -> SLOThresholds:
    t = SLOThresholds()
    for flag, field_name in (
        ("max_p99_ms", "max_p99_ms"),
        ("max_shed_rate", "max_shed_rate"),
        ("max_spot_check_failures", "max_spot_check_failures"),
        ("max_failed", "max_failed"),
        ("max_drift_pct", "max_modeled_drift_pct"),
        ("max_chaos_divergences", "max_chaos_divergences"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            setattr(t, field_name, val)
    return t


def _smoke_summary(seed: int) -> dict:
    """Run the smoke serving preset in-process, histograms + spot-checks on."""
    from repro.service.cli import parse_pool
    from repro.service.scheduler import QueryScheduler, SchedulerConfig
    from repro.service.workload import WorkloadConfig, default_catalog, generate_workload

    catalog = default_catalog(seed=seed, scale="tiny")
    workload = generate_workload(
        catalog,
        WorkloadConfig(n_requests=60, mean_interarrival_ns=2_000.0),
        seed=seed,
    )
    scheduler = QueryScheduler(
        pool=parse_pool("v100s:2,mi100:1"),
        catalog=catalog,
        config=SchedulerConfig(spot_check_every=10, histograms=True),
    )
    report = scheduler.run(workload)

    counter = report.metrics.value  # 0.0 for never-touched counters

    lat = report.metrics.histograms()
    latency = next((h for h in lat if h.name == "service.latency"), None)
    admitted = counter("service.admitted")
    p99_ns = latency.quantile(99.0) if latency is not None else 0.0
    ex = latency.quantile_exemplar(99.0) if latency is not None else None
    return {
        "source": "smoke run (seed %d)" % seed,
        "completed": int(counter("service.completed")),
        "p99_ms": p99_ns / 1e6,
        "p99_trace_id": ex.trace_id if ex is not None else "",
        "shed_rate": counter("service.shed") / admitted if admitted else 0.0,
        "spot_check_failures": int(counter("service.spot_check_failures")),
        "failed": int(counter("service.failed")),
    }


def _report_summary(path: str) -> dict:
    """Measurements from a ``serve-sim --report`` JSON."""
    data = json.loads(Path(path).read_text())
    counters = data.get("counters", {})
    admitted = counters.get("service.admitted", 0.0)
    hist = data.get("histograms", {}).get("service.latency")
    if hist is not None:
        p99_ms = hist["p99_ns"] / 1e6
        ex = hist.get("p99_exemplar") or {}
        p99_trace = ex.get("trace_id", "")
    else:
        # fall back to the per-priority summaries (same nearest-rank
        # convention, but per-class): gate on the worst class
        p99_ms = max(
            (s["p99_ms"] for s in data.get("latency_by_priority", {}).values()),
            default=0.0,
        )
        p99_trace = ""
    return {
        "source": path,
        "completed": int(counters.get("service.completed", 0)),
        "p99_ms": p99_ms,
        "p99_trace_id": p99_trace,
        "shed_rate": counters.get("service.shed", 0.0) / admitted if admitted else 0.0,
        "spot_check_failures": int(counters.get("service.spot_check_failures", 0)),
        "failed": int(counters.get("service.failed", 0)),
    }


def _ledger_summary(baseline_path: str) -> dict:
    """Recompute every case of a BENCH ledger and diff it field by field.

    Drift is relative to the baseline value (to 1 where the baseline is
    0, e.g. a gang with no ghost traffic); the worst over every numeric
    field of every case is reported as ``modeled_drift_pct``.  Cases
    whose result digest changed are listed in ``digest_changes``.
    """
    from repro.bench import ledger

    base = json.loads(Path(baseline_path).read_text())
    now, _ = ledger.measure(base["cases"], base["seed"])
    worst, worst_at, changed = 0.0, "", []
    for key, old in sorted(base["cases"].items()):
        new = now[key]
        if new["digest"] != old["digest"]:
            changed.append(key)
        for name, value in sorted(old.items()):
            if name == "digest":
                continue
            drift = 100.0 * (new[name] - value) / (value or 1)
            if abs(drift) > abs(worst):
                worst, worst_at = drift, f"{key} {name}"
    return {
        "baseline": baseline_path,
        "ledger_cases": len(base["cases"]),
        "modeled_drift_pct": worst,
        "drift_field": worst_at,
        "digest_changes": changed,
    }


def _chaos_summary(path: str) -> dict:
    """Corruption totals from a ``chaos --report`` JSON.

    Sums result-digest divergences and in-loop spot-check failures over
    every scenario — any non-zero total means an injected fault schedule
    produced a wrong answer that was *served*, which no recovery story
    excuses.
    """
    data = json.loads(Path(path).read_text())
    scenarios = data.get("scenarios", [])
    total = sum(
        int(s.get("divergences", 0)) + int(s.get("spot_check_failures", 0))
        for s in scenarios
    )
    return {
        "chaos_report": path,
        "chaos_scenarios": len(scenarios),
        "chaos_faults_injected": sum(int(s.get("injected", 0)) for s in scenarios),
        "chaos_divergences": total,
    }


def run_slo(args) -> int:
    """Evaluate the gate; prints the verdict, non-zero exit on violation."""
    thresholds = _thresholds_from_args(args)
    seed = args.seed

    report_path = getattr(args, "slo_report", None)
    summary = _report_summary(report_path) if report_path else _smoke_summary(seed)

    if not getattr(args, "skip_drift", False):
        if Path(args.baseline).exists():
            summary.update(_ledger_summary(args.baseline))
        else:
            print(f"[slo] baseline {args.baseline} not found; skipping drift check")

    chaos_path = getattr(args, "chaos_report", None)
    if chaos_path:
        if Path(chaos_path).exists():
            summary.update(_chaos_summary(chaos_path))
        else:
            print(f"[slo] chaos report {chaos_path} not found; skipping chaos check")

    violations = evaluate_slo(summary, thresholds)

    output = getattr(args, "slo_output", None)
    if output:
        result = {
            "benchmark": "slo-gate",
            "seed": seed,
            "thresholds": {f.name: getattr(thresholds, f.name) for f in fields(SLOThresholds)},
            "summary": summary,
            "violations": violations,
            "pass": not violations,
        }
        Path(output).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"slo gate over {summary['source']}:")
    checked = [
        ("p99 latency", f"{summary.get('p99_ms', 0.0):.4f} ms", f"<= {thresholds.max_p99_ms:g} ms"),
        ("shed rate", f"{summary.get('shed_rate', 0.0):.4f}", f"<= {thresholds.max_shed_rate:g}"),
        ("spot-check failures", str(summary.get("spot_check_failures", 0)), f"<= {thresholds.max_spot_check_failures}"),
        ("failed requests", str(summary.get("failed", 0)), f"<= {thresholds.max_failed}"),
    ]
    if "modeled_drift_pct" in summary:
        checked.append(
            (
                f"modeled drift ({summary['ledger_cases']} ledger cases)",
                f"{summary['modeled_drift_pct']:+.4f}%",
                f"within ±{thresholds.max_modeled_drift_pct:g}%",
            )
        )
        checked.append(("digest changes", str(len(summary["digest_changes"])), "<= 0"))
    if "chaos_divergences" in summary:
        checked.append(
            (
                f"chaos corruption ({summary['chaos_scenarios']} scenarios)",
                str(summary["chaos_divergences"]),
                f"<= {thresholds.max_chaos_divergences}",
            )
        )
    for name, value, budget in checked:
        print(f"  {name:30s} {value:>14s}   (budget {budget})")
    if summary.get("p99_trace_id"):
        print(f"  p99 exemplar trace_id          {summary['p99_trace_id']}")
    if output:
        print(f"[gate result written to {output}]")
    if violations:
        for v in violations:
            print(f"SLO VIOLATION: {v}", file=sys.stderr)
        return 1
    print("slo gate: PASS")
    return 0
