#!/usr/bin/env python3
"""Benchmark: host and modeled time of serving graph queries.

Run from the repository root::

    python3 perfbench/run.py --workload deep --seed 1 --seconds 10 --trace 0

Workloads (``deep``, ``wide``, ``serve``) are described in
``perfbench/workloads.py``.  One run

1. makes the workload's inputs from ``--seed`` — graph catalog and
   request trace — untimed, then sets the program up: builds the
   scheduler and its per-device queues and uploads every graph
   representation the trace reads, once untimed to warm up, then at
   least ``SETUP_REPEATS`` times and for at least ``SETUP_MIN_S``, and
   reports the median as ``setup_s``;
2. serves the trace once untimed with the scheduler's spot check on for
   every completed request, which diffs its result against the
   pure-Python oracle of :mod:`repro.checking`.  The modeled latencies
   of this pass are the modeled metrics: the simulator is deterministic,
   so every later pass repeats them;
3. serves the trace again and again for ``--seconds`` with the cost
   model on, checking that every pass repeats the verified pass's
   modeled timeline (each request's status, finish and service time)
   and the verified result digest of every completed request.

Requests that admission control sheds or rejects, or that time out,
are not failures: ``failed`` counts requests that fail or diverge.

Host times are in reference milliseconds (``ref_ms``, see
``perfbench/speed.py``): wall time scaled by calibration slices run
every ``MARK_EVERY_S`` or so, so that the drifting speed of a shared
machine cancels out.  ``setup_s`` is on the same scale, in reference
seconds.

``--trace 0`` prints the end-to-end metrics: host ref ms per query
(median over passes), modeled request latency p50/p90, and ``setup_s``.
p90 rather than a higher percentile: on ``serve`` the top 5% are a
handful of long Δ-stepping and PageRank requests whose cost depends on
the drawn source, so p95 moves by more than any useful bound from seed
to seed.  ``--trace 1`` times the passes under
:class:`perfbench.layers.LayerProfiler` instead and prints per-layer host
self time and work counts per query, plus modeled kernel and queueing
statistics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: set-ups per run (at least this many, and for at least SETUP_MIN_S of
#: wall time); setup_s is their median
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
#: shortest stretch between two speed-clock marks inside a pass
MARK_EVERY_S = 0.02


class MarkingRegistry:
    """Stand-in dispatch registry for the timed passes: calls ``mark``
    before and after every request."""

    def __init__(self, inner, mark):
        self.inner = inner
        self.mark = mark

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, bundle, request):
        self.mark()
        try:
            return self.inner.run(bundle, request)
        finally:
            self.mark()


class SpeedMarks:
    """While active, marks the speed clock from inside every pass: when a
    request starts or ends and, with ``kernels``, when a kernel is
    submitted — at most once per ``MARK_EVERY_S``.  Stretches that short
    track the machine's speed as it drifts (per-request marks alone left
    the same seed ±6% apart on ``deep``, whose requests take 150 ms), while
    the slices stay a small share of the run."""

    def __init__(self, scheduler, clock, kernels: bool):
        self.scheduler = scheduler
        self.clock = clock
        self.kernels = kernels
        #: wall seconds of the slices run from inside QueryScheduler.run
        self.slice_s = 0.0
        self._next = 0.0

    def mark(self) -> None:
        if time.perf_counter() < self._next:
            return
        before = self.clock.slice_s
        self.clock.mark()
        self.slice_s += self.clock.slice_s - before
        self._next = time.perf_counter() + MARK_EVERY_S

    def __enter__(self) -> "SpeedMarks":
        from repro.sycl.queue import Queue

        self.scheduler.registry = MarkingRegistry(self.scheduler.registry, self.mark)
        if self.kernels:
            submit = self._submit = Queue.submit
            mark = self.mark

            def marked_submit(queue, *args, **kwargs):
                mark()
                return submit(queue, *args, **kwargs)

            Queue.submit = marked_submit
        return self

    def __exit__(self, *exc) -> None:
        from repro.sycl.queue import Queue

        self.scheduler.registry = self.scheduler.registry.inner
        if self.kernels:
            Queue.submit = self._submit


def setup(workload):
    """Scheduler, per-device queues and device-resident graphs, ready to
    serve ``workload``."""
    from repro.service.scheduler import QueryScheduler, SchedulerConfig

    scheduler = QueryScheduler(
        pool=workload.pool,
        catalog=workload.catalog,
        config=SchedulerConfig(keep_result_digests=True),
    )
    specs = {spec.name: spec for spec in workload.catalog}
    for worker in scheduler.workers:
        for req in workload.trace:
            scheduler.registry.prepare(worker.bundle_for(specs[req.graph]), req)
    return scheduler


def timed_setups(workload, clock):
    """Set up repeatedly; returns the last scheduler and every set-up's
    reference seconds."""
    setup_s, started = [], time.perf_counter()
    while len(setup_s) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        clock.restart()
        clock.mark()
        before = clock.ref_ms
        scheduler = setup(workload)
        clock.mark()
        setup_s.append((clock.ref_ms - before) / 1e3)
    return scheduler, setup_s


def serve_pass(workload, scheduler, clock=None):
    """Serve a fresh copy of the trace.

    Returns ``(report, reference ms, wall ms)``, the times without the
    calibration slices; both are 0 without a ``clock``.
    """
    trace = workload.fresh_trace()
    for worker in scheduler.workers:
        # every pass starts from an empty kernel log, so passes repeat
        # the same modeled timeline bit for bit
        worker.queue.reset_profile()
    if clock is None:
        return scheduler.run(trace), 0.0, 0.0
    clock.restart()
    clock.mark()
    ref0, wall0 = clock.ref_ms, clock.wall_s
    report = scheduler.run(trace)
    clock.mark()
    return report, clock.ref_ms - ref0, (clock.wall_s - wall0) * 1e3


def verified_pass(workload, scheduler):
    """Untimed pass in which the scheduler diffs every completed result
    against the oracle; a divergent result is recorded as FAILED."""
    scheduler.config.spot_check_every = 1
    try:
        report, _, _ = serve_pass(workload, scheduler)
    finally:
        scheduler.config.spot_check_every = 0
    return report


def kernel_stats(scheduler) -> dict:
    """Modeled kernel statistics of the pass just served (all workers)."""
    costs = [c for w in scheduler.workers for c in w.queue.profile.costs]
    accesses = sum(c.l1.accesses for c in costs)
    return {
        "kernels": len(costs),
        "dram_bytes": sum(c.dram_bytes for c in costs),
        "l1_hit_rate": sum(c.l1.hits for c in costs) / accesses if accesses else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from layers import LAYERS, LayerProfiler
    from repro.service.request import RequestStatus
    from speed import LARGE_ARRAY_BYTES, SpeedClock
    from workloads import WORKLOADS

    workload_fn = WORKLOADS.get(args.workload)
    if workload_fn is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workload_fn(args.seed)
    setup(workload)  # untimed: imports, warm caches
    large_arrays = max(spec.coo.n_edges for spec in workload.catalog) * 8 > LARGE_ARRAY_BYTES
    scheduler, setup_s = timed_setups(workload, SpeedClock(large_arrays))

    ref = verified_pass(workload, scheduler)
    bad = [rec.req_id for rec in ref.records if rec.status is RequestStatus.FAILED]
    dropped = Counter(rec.status.value for rec in ref.records if rec.status is not RequestStatus.COMPLETED)
    stats = kernel_stats(scheduler)
    ref_digests = {rec.req_id: rec.result_digest for rec in ref.records}
    ref_timeline = ref.timeline()
    done = ref.completed()
    latencies = [rec.latency_ns / 1e6 for rec in done]
    n = len(workload.trace)

    clock = SpeedClock(large_arrays)
    profiler = LayerProfiler() if args.trace else nullcontext()
    # traced, no marks at kernel submission: their slices would land in
    # whichever layer submits, where they cannot be taken out again
    marks = SpeedMarks(scheduler, clock, kernels=not args.trace)
    host_ref, host_wall, attempted, failed, same_timeline = [], [], 0, 0, True
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    with profiler, marks:
        while True:
            report, ref_ms, wall_ms = serve_pass(workload, scheduler, clock)
            host_ref.append(ref_ms / n)
            host_wall.append(wall_ms / n)
            attempted += n
            # shed, rejected and timed-out requests are admission control
            # at work, not wrong answers; the timeline check below holds
            # every pass to the verified pass's statuses
            failed += sum(
                1
                for rec in report.records
                if rec.status is RequestStatus.FAILED
                or (rec.status is RequestStatus.COMPLETED and rec.result_digest != ref_digests[rec.req_id])
            )
            same_timeline = same_timeline and report.timeline() == ref_timeline
            if time.perf_counter() >= deadline:
                break

    host_median = statistics.median(host_ref)
    if args.trace:
        # the per-request slices run inside QueryScheduler.run but outside
        # every nested layer, so the profiler booked them as scheduler time
        profiler.self_s["scheduler"] -= marks.slice_s
        ref_per_wall_ms = clock.ref_ms / (clock.wall_s * 1e3)
        metrics = {
            f"{layer}_self_ref_ms": (profiler.self_s[layer] * 1e3 * ref_per_wall_ms / attempted, "ref_ms")
            for layer in LAYERS
        }
        metrics.update(
            operator_calls=(profiler.calls["operators"] / attempted, "count"),
            frontier_calls=(profiler.calls["frontier"] / attempted, "count"),
            kernels=(stats["kernels"] / n, "count"),
            dram_mb=(stats["dram_bytes"] / 1e6 / n, "MB"),
            l1_hit_rate=(stats["l1_hit_rate"], "ratio"),
            modeled_queue_wait_ms=(float(np.mean([(r.start_ns - r.arrival_ns) / 1e6 for r in done])), "ms"),
            modeled_service_ms=(float(np.mean([r.service_ns / 1e6 for r in done])), "ms"),
            traced_host_ref_ms_per_query=(host_median, "ref_ms"),
            traced_host_wall_ms_per_query=(statistics.median(host_wall), "ms"),
        )
    else:
        metrics = {
            "host_ref_ms_per_query": (host_median, "ref_ms"),
            "modeled_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
            "modeled_p90_ms": (float(np.percentile(latencies, 90)), "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
        }

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(host_ref)} passes x {n} "
        f"requests; host ref ms/query min {min(host_ref):.3f} median {host_median:.3f} "
        f"max {max(host_ref):.3f} (wall ms/query median {statistics.median(host_wall):.3f}, "
        f"large-array slice {large_arrays}); "
        f"modeled latency over {len(latencies)} completed requests "
        f"(not completed: {dict(sorted(dropped.items()))}); "
        f"{stats['kernels']} kernels per pass; {len(setup_s)} set-ups, median "
        f"{statistics.median(setup_s):.4f} ref s; failed in verified pass {len(bad)}; "
        f"timeline repeats {same_timeline}"
    )
    result = {
        "correct": not bad and failed == 0 and same_timeline,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
