"""``python -m repro serve-sim`` — deterministic load simulation.

Generates a seeded workload (Poisson arrivals, Zipf graph popularity,
mixed algorithms/priorities), serves it through the
:class:`~repro.service.scheduler.QueryScheduler` over a configurable
device pool, and prints a report of throughput, per-priority latency
percentiles, service counters and per-worker utilization — **entirely in
modeled time**, so two runs with the same arguments are byte-identical
(CI diffs the smoke report against a checked-in golden file).
"""

from __future__ import annotations

import json
from typing import List

from repro.service.request import PRIORITIES, RequestStatus, priority_name


def add_serve_arguments(parser) -> None:
    """Attach the ``serve-sim`` subcommand's flags to the main parser."""
    group = parser.add_argument_group("serve-sim options (experiment = 'serve-sim')")
    group.add_argument(
        "--pool", default="v100s:2,mi100:1",
        help="device pool as name:count pairs, comma-separated "
        "(names: v100s | max1100 | max1100-opencl | mi100)",
    )
    group.add_argument(
        "--requests", type=int, default=200, help="workload size (default 200)"
    )
    group.add_argument(
        "--interarrival-us", type=float, default=2.0,
        help="mean Poisson inter-arrival time, modeled µs (default 2, "
        "which keeps a multi-device pool contended)",
    )
    group.add_argument(
        "--queue-depth", type=int, default=64, help="admission queue bound (default 64)"
    )
    group.add_argument(
        "--batch", type=int, default=4, help="max same-graph batch size (default 4)"
    )
    group.add_argument(
        "--spot-check", type=int, default=0, metavar="N",
        help="re-verify every Nth completion against the oracle (0 = off)",
    )
    group.add_argument(
        "--timeout-ms", type=float, default=None,
        help="per-request deadline in modeled ms (default: none)",
    )
    group.add_argument(
        "--smoke", action="store_true",
        help="tiny fixed preset for the CI golden-file diff "
        "(overrides --requests/--scale)",
    )
    group.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the full report as JSON (CI artifact)",
    )
    group.add_argument(
        "--histograms", action="store_true",
        help="record latency/queue-wait histograms with trace-id "
        "exemplars and append them to the report",
    )
    group.add_argument(
        "--trace-output", default=None, metavar="PATH",
        help="trace the run end-to-end and write ONE merged Perfetto "
        "JSON (scheduler request tracks + per-worker span trees, flow "
        "events linking retry attempts)",
    )
    group.add_argument(
        "--flight", default=None, metavar="PATH",
        help="enable the flight recorder; auto-dumps the event ring to "
        "PATH on a FAILED request or crash, else dumps at end of run "
        "(pretty-print with `python -m repro flight PATH`)",
    )
    group.add_argument(
        "--flight-capacity", type=int, default=256, metavar="N",
        help="flight-recorder ring size (default 256, used with --flight)",
    )


def parse_pool(spec: str) -> List[str]:
    """``"v100s:2,mi100:1"`` → ``["v100s", "v100s", "mi100"]``."""
    names: List[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        n = int(count) if count else 1
        if n < 1:
            raise ValueError(f"pool count must be >= 1 in {part!r}")
        names.extend([name] * n)
    if not names:
        raise ValueError(f"empty pool spec {spec!r}")
    return names


def render_report(report, args_line: str) -> str:
    """Deterministic plain-text serving report (modeled values only)."""
    from repro.bench.reporting import format_table, latency_summary, ns_to_ms

    lines = [args_line, ""]
    counters = [[m.name, int(m.value)] for m in report.metrics.counters()]
    lines.append(format_table(["counter", "total"], counters, title="service counters"))
    lines.append("")

    lat = report.latencies_by_priority()
    rows = []
    for prio in sorted(lat):
        s = latency_summary(lat[prio])
        rows.append(
            [
                priority_name(prio),
                s["count"],
                f"{s['p50_ms']:.4f}",
                f"{s['p95_ms']:.4f}",
                f"{s['p99_ms']:.4f}",
                f"{s['max_ms']:.4f}",
            ]
        )
    lines.append(
        format_table(
            ["priority", "completed", "p50_ms", "p95_ms", "p99_ms", "max_ms"],
            rows,
            title="latency by priority (modeled ms)",
        )
    )
    lines.append("")

    makespan = report.makespan_ns
    wrows = [
        [
            w["worker"],
            w["device"],
            w["dispatched"],
            f"{ns_to_ms(w['busy_ns']):.4f}",
            f"{100.0 * w['busy_ns'] / makespan:.1f}%" if makespan > 0 else "-",
            w["graphs_cached"],
        ]
        for w in report.workers
    ]
    lines.append(
        format_table(
            ["worker", "device", "batches", "busy_ms", "util", "graphs"],
            wrows,
            title="worker pool",
        )
    )
    lines.append("")

    hists = report.metrics.histograms()
    if hists:  # only recorded under --histograms; goldens never see this
        hrows = []
        for h in hists:
            ex = h.quantile_exemplar(99.0)
            hrows.append(
                [
                    h.name,
                    h.count,
                    f"{ns_to_ms(h.quantile(50.0)):.4f}",
                    f"{ns_to_ms(h.quantile(95.0)):.4f}",
                    f"{ns_to_ms(h.quantile(99.0)):.4f}",
                    ex.trace_id if ex is not None else "-",
                ]
            )
        lines.append(
            format_table(
                ["histogram", "count", "p50_ms", "p95_ms", "p99_ms", "p99_trace"],
                hrows,
                title="latency histograms (p99 exemplar = trace id of the p99 sample)",
            )
        )
        lines.append("")

    speedup = report.serialized_ns / makespan if makespan > 0 else 0.0
    lines.append(f"makespan      {ns_to_ms(makespan):.4f} ms (modeled)")
    lines.append(f"serialized    {ns_to_ms(report.serialized_ns):.4f} ms (one in-order queue, same trace)")
    lines.append(f"speedup       {speedup:.2f}x")
    lines.append(f"throughput    {report.throughput_rps:.1f} req/s (modeled)")
    return "\n".join(lines)


def report_json(report, meta: dict) -> dict:
    """JSON-serializable report (the CI artifact)."""
    from repro.bench.reporting import latency_summary

    lat = report.latencies_by_priority()
    out = {
        "meta": meta,
        "counters": {m.name: m.value for m in report.metrics.counters()},
        "latency_by_priority": {priority_name(p): latency_summary(v) for p, v in lat.items()},
        "workers": report.workers,
        "makespan_ns": report.makespan_ns,
        "serialized_ns": report.serialized_ns,
        "throughput_rps": report.throughput_rps,
        "timeline": [list(t) for t in report.timeline()],
        "statuses": {
            s.value: len(report.by_status(s)) for s in RequestStatus
        },
    }
    hists = report.metrics.histograms()
    if hists:  # key only appears under --histograms
        out["histograms"] = {h.name: histogram_json(h) for h in hists}
    return out


def histogram_json(h) -> dict:
    """JSON summary of one histogram, exemplars included."""
    ex99 = h.quantile_exemplar(99.0)
    return {
        "count": h.count,
        "sum": h.sum,
        "mean": h.mean,
        "p50_ns": h.quantile(50.0),
        "p95_ns": h.quantile(95.0),
        "p99_ns": h.quantile(99.0),
        "p99_exemplar": (
            {"value": ex99.value, "ts_ns": ex99.ts_ns, "trace_id": ex99.trace_id}
            if ex99 is not None
            else None
        ),
        "bucket_counts": list(h.counts),
        "bucket_exemplars": {
            str(i): {"value": e.value, "ts_ns": e.ts_ns, "trace_id": e.trace_id}
            for i, e in sorted(h.exemplars().items())
        },
    }


def run_serve(args) -> int:
    """Run one serving simulation; prints the report, 0 on success."""
    from repro.service.scheduler import QueryScheduler, SchedulerConfig
    from repro.service.workload import WorkloadConfig, default_catalog, generate_workload

    seed = getattr(args, "seed", 0) or 0
    if args.smoke:
        scale, n_requests = "tiny", 60
    else:
        scale = args.scale or "small"
        n_requests = args.requests
    pool = parse_pool(args.pool)
    catalog = default_catalog(seed=seed, scale=scale)
    timeout_ns = args.timeout_ms * 1e6 if args.timeout_ms else None
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            n_requests=n_requests,
            mean_interarrival_ns=args.interarrival_us * 1e3,
            timeout_ns=timeout_ns,
        ),
        seed=seed,
    )
    trace_output = getattr(args, "trace_output", None)
    flight_path = getattr(args, "flight", None)
    # --fault-rule arms the injection plane on this one run; the default
    # (no rules, injector None) is the zero-cost path, so the smoke
    # golden is byte-identical with or without the fault plane built in
    injector = None
    fault_rules = getattr(args, "fault_rule", None)
    if fault_rules:
        from repro.faults import FaultInjector, parse_fault_rule

        injector = FaultInjector(
            [parse_fault_rule(spec) for spec in fault_rules],
            seed=getattr(args, "fault_seed", 0) or 0,
        )
    config = SchedulerConfig(
        max_queue_depth=args.queue_depth,
        max_batch=args.batch,
        spot_check_every=args.spot_check,
        trace=trace_output is not None,
        histograms=getattr(args, "histograms", False),
        flight_capacity=getattr(args, "flight_capacity", 256) if flight_path else 0,
        flight_path=flight_path,
        fault_injector=injector,
    )
    scheduler = QueryScheduler(pool=pool, catalog=catalog, config=config)
    report = scheduler.run(workload)

    meta = {
        "seed": seed,
        "scale": scale,
        "pool": args.pool,
        "requests": n_requests,
        "interarrival_us": args.interarrival_us,
        "priorities": list(PRIORITIES),
    }
    args_line = (
        f"serve-sim seed={seed} scale={scale} pool={args.pool} "
        f"requests={n_requests} interarrival={args.interarrival_us:g}us"
    )
    print(render_report(report, args_line))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report_json(report, meta), fh, indent=2, sort_keys=True)
        print(f"\n[report written to {args.report}]")
    if trace_output:
        from repro.service.traceexport import export_service_trace

        export_service_trace(report, trace_output)
        print(f"[trace written to {trace_output}]")
    if flight_path:
        if report.flight_dump_path:
            print(f"[flight dump written to {report.flight_dump_path}]")
        elif report.flight is not None:
            # nothing failed: still leave the end-of-run ring on disk so
            # the artifact exists either way
            report.flight.dump_json(flight_path, reason="end of run")
            print(f"[flight dump written to {flight_path}]")
    return 0
