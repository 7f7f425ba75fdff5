"""``python -m repro chaos`` — seeded fault matrix over the serving loop.

Runs the serve-sim smoke preset (plus a handful of deterministic gang
requests, so the BSP ``exchange`` site is actually exercised) once per
scenario of a fixed fault matrix, with one
:class:`~repro.faults.FaultInjector` per scenario seeded from
``--fault-seed``.  The harness then holds the plane to the recovery
contract:

* every request COMPLETED under a fault schedule must carry the
  **bit-identical** result digest the fault-free baseline produced
  (``SchedulerConfig.keep_result_digests``);
* the in-loop differential spot-check must stay green;
* degradation is allowed — requests may FAIL with a typed reason — but
  silent corruption is not.

Everything runs on the modeled clock with seeded randomness, so the
printed report is **byte-deterministic**: two invocations with the same
``--fault-seed`` (and rules) produce identical bytes, which is what the
CI ``bench-gate`` job archives.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import FaultInjector, FaultRule, parse_fault_rule

#: the default scenario matrix: one scenario per site, plus a fault-free
#: baseline (the digest reference) and a mixed storm.  Probabilities and
#: budgets are tuned so every scenario stays *recoverable* on the smoke
#: preset — the contract under test is bit-identity, not survival of an
#: unbounded outage.
DEFAULT_MATRIX: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("baseline", ()),
    ("kernel-launch", ("kernel_launch:0.002:3",)),
    ("alloc", ("alloc:0.01:3",)),
    ("device-loss", ("device_loss:0.05:1",)),
    ("exchange", ("exchange:0.25:6",)),
    ("mixed", ("kernel_launch:0.001:2", "alloc:0.005:2", "exchange:0.15:3")),
)

#: gang requests appended after the smoke trace: algorithm × devices,
#: arrivals spaced so the FIFO gang barrier assembles naturally.  These
#: are what routes the injector into repro.dist (the exchange site).
GANG_JOBS: Tuple[Tuple[str, int], ...] = (("bfs", 2), ("sssp", 2), ("cc", 2))


def add_chaos_arguments(parser) -> None:
    """Attach the ``chaos`` subcommand's flags to the main parser.

    ``chaos`` also honors the shared serve-sim flags ``--pool``,
    ``--report`` and ``--flight``; and serve-sim itself honors
    ``--fault-rule``/``--fault-seed`` for one-off injected runs.
    """
    group = parser.add_argument_group("chaos / fault-injection options (experiment = 'chaos')")
    group.add_argument(
        "--fault-seed", type=int, default=0,
        help="PCG64 seed for every scenario's fault stream (default 0); "
        "the chaos report is a pure function of this seed",
    )
    group.add_argument(
        "--fault-rule", action="append", default=None, metavar="SITE[:P[:N[:AFTER]]]",
        help="inject faults at SITE (kernel_launch | alloc | device_loss "
        "| exchange) with probability P, at most N times, only after "
        "AFTER modeled ns; repeatable.  With 'chaos' this replaces the "
        "built-in matrix by a single custom scenario; with 'serve-sim' "
        "it arms the injector on that one run",
    )


def _build_requests(catalog, seed: int):
    """Smoke request trace + deterministic trailing gang jobs."""
    from repro.service.request import Request
    from repro.service.workload import WorkloadConfig, generate_workload

    requests = generate_workload(
        catalog,
        WorkloadConfig(n_requests=60, mean_interarrival_ns=2_000.0),
        seed=seed,
    )
    last_arrival = max(r.arrival_ns for r in requests) if requests else 0.0
    graph = catalog[0].name
    for k, (algorithm, devices) in enumerate(GANG_JOBS):
        requests.append(
            Request(
                req_id=len(requests),
                algorithm=algorithm,
                graph=graph,
                source=0,
                layout="2lb",
                priority=1,
                arrival_ns=last_arrival + 50_000.0 * (k + 1),
                devices=devices,
            )
        )
    return requests


def _counter(report, name: str) -> int:
    for m in report.metrics.counters():
        if m.name == name:
            return int(m.value)
    return 0


def _run_scenario(
    pool: Sequence[str],
    catalog,
    requests,
    rules: Sequence[FaultRule],
    fault_seed: int,
    flight_capacity: int,
):
    """One scheduler run; a fresh pool per scenario (quarantine is sticky)."""
    import copy

    from repro.service.scheduler import QueryScheduler, SchedulerConfig

    injector = FaultInjector(list(rules), seed=fault_seed) if rules else None
    config = SchedulerConfig(
        spot_check_every=5,
        keep_result_digests=True,
        fault_injector=injector,
        flight_capacity=flight_capacity,
    )
    scheduler = QueryScheduler(pool=pool, catalog=catalog, config=config)
    # requests are mutated in place by the serving loop (attempts,
    # trace ids); every scenario must see the pristine trace
    report = scheduler.run(copy.deepcopy(requests))
    return scheduler, report


def _scenario_summary(name: str, rules, scheduler, report, baseline_digests) -> Dict:
    """Deterministic per-scenario roll-up, compared against the baseline."""
    from repro.service.request import RequestStatus

    digests = {
        r.req_id: r.result_digest
        for r in report.by_status(RequestStatus.COMPLETED)
        if r.result_digest
    }
    divergent = sorted(
        rid
        for rid, d in digests.items()
        if rid in baseline_digests and d != baseline_digests[rid]
    )
    injector = scheduler.config.fault_injector
    by_site = injector.counts_by_site() if injector is not None else {}
    return {
        "scenario": name,
        "rules": [
            f"{r.site}:{r.probability:g}" + (f":{r.count}" if r.count is not None else "")
            for r in rules
        ],
        "injected": sum(by_site.values()),
        "by_site": by_site,
        "completed": len(report.by_status(RequestStatus.COMPLETED)),
        "failed": len(report.by_status(RequestStatus.FAILED)),
        "degraded": _counter(report, "faults.degraded"),
        "quarantined": _counter(report, "faults.quarantined"),
        "recovered_supersteps": _counter(report, "faults.recovered.exchange"),
        "retried": _counter(report, "service.retried"),
        "spot_checks": _counter(report, "service.spot_checks"),
        "spot_check_failures": _counter(report, "service.spot_check_failures"),
        "divergences": len(divergent),
        "divergent_req_ids": divergent,
        "digests": digests,
    }


def render_chaos_report(summaries: List[Dict], args_line: str) -> str:
    """Byte-deterministic plain-text chaos report."""
    from repro.bench.reporting import format_table

    lines = [args_line, ""]
    rows = []
    for s in summaries:
        site_bits = ",".join(f"{k}={v}" for k, v in sorted(s["by_site"].items()) if v)
        rows.append(
            [
                s["scenario"],
                s["injected"],
                site_bits or "-",
                s["completed"],
                s["failed"],
                s["degraded"],
                s["quarantined"],
                s["recovered_supersteps"],
                s["spot_check_failures"],
                s["divergences"],
            ]
        )
    lines.append(
        format_table(
            [
                "scenario", "faults", "by site", "completed", "failed",
                "degraded", "quarantined", "recovered", "spot_fail", "diverged",
            ],
            rows,
            title="chaos matrix (modeled; digests vs fault-free baseline)",
        )
    )
    lines.append("")
    total_div = sum(s["divergences"] for s in summaries)
    total_spot = sum(s["spot_check_failures"] for s in summaries)
    for s in summaries:
        if s["divergent_req_ids"]:
            lines.append(
                f"DIVERGENT {s['scenario']}: req_ids {s['divergent_req_ids']}"
            )
    verdict = "OK" if (total_div == 0 and total_spot == 0) else "CORRUPTION"
    lines.append(
        f"chaos verdict {verdict} "
        f"(divergences={total_div}, spot-check failures={total_spot})"
    )
    return "\n".join(lines)


def run_chaos(args) -> int:
    """Run the fault matrix; prints the report, 0 iff no corruption."""
    from repro.service.cli import parse_pool
    from repro.service.workload import default_catalog

    seed = getattr(args, "seed", 0) or 0
    fault_seed = getattr(args, "fault_seed", 0) or 0
    pool = parse_pool(getattr(args, "pool", None) or "v100s:2,mi100:1")
    flight_path = getattr(args, "flight", None)
    flight_capacity = getattr(args, "flight_capacity", 256) if flight_path else 0

    custom = getattr(args, "fault_rule", None)
    if custom:
        matrix = [("baseline", ()), ("custom", tuple(custom))]
    else:
        matrix = list(DEFAULT_MATRIX)

    catalog = default_catalog(seed=seed, scale="tiny")
    requests = _build_requests(catalog, seed)

    summaries: List[Dict] = []
    baseline_digests: Dict[int, str] = {}
    last_flight = None
    for name, rule_specs in matrix:
        rules = [parse_fault_rule(spec) for spec in rule_specs]
        scheduler, report = _run_scenario(
            pool, catalog, requests, rules, fault_seed, flight_capacity
        )
        summary = _scenario_summary(name, rules, scheduler, report, baseline_digests)
        if name == "baseline":
            baseline_digests = summary["digests"]
        summaries.append(summary)
        if report.flight is not None:
            last_flight = report.flight

    args_line = (
        f"chaos seed={seed} fault-seed={fault_seed} pool={','.join(pool)} "
        f"requests={len(requests)} scenarios={len(matrix)}"
    )
    print(render_chaos_report(summaries, args_line))

    report_path = getattr(args, "report", None)
    if report_path:
        payload = {
            "meta": {
                "seed": seed,
                "fault_seed": fault_seed,
                "pool": list(pool),
                "requests": len(requests),
            },
            "scenarios": [
                {k: v for k, v in s.items() if k != "digests"} for s in summaries
            ],
        }
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\n[report written to {report_path}]")
    if flight_path and last_flight is not None:
        last_flight.dump_json(flight_path, reason="chaos end of run")
        print(f"[flight dump written to {flight_path}]")

    corrupted = any(
        s["divergences"] or s["spot_check_failures"] for s in summaries
    )
    return 1 if corrupted else 0
