"""Property: scheduler determinism.

Identical seed + arrival trace must produce a bit-identical completion
timeline and modeled makespan — within one process AND across fresh
interpreters (fresh hash seeds, fresh allocator state), the same
subprocess round-trip the differential matrix uses in
``tests/checking``.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.workload import WorkloadConfig, default_catalog, generate_workload

REPO_ROOT = Path(__file__).resolve().parents[2]

_TIMELINE_SNIPPET = """
from repro.faults import FaultInjector, FaultRule
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.workload import WorkloadConfig, default_catalog, generate_workload

catalog = default_catalog(seed=9, scale="tiny")
trace = generate_workload(
    catalog, WorkloadConfig(n_requests=80, mean_interarrival_ns=2_000.0), seed=9
)
sched = QueryScheduler(
    pool=("v100s", "v100s", "mi100"),
    catalog=catalog,
    config=SchedulerConfig(
        spot_check_every=7,
        timeout_ns=(None, None, 400_000.0),
        fault_injector=FaultInjector(
            [FaultRule("kernel_launch", probability=0.01, count=8)], seed=9
        ),
    ),
)
report = sched.run(trace)
print(repr(report.timeline()))
print(repr(report.makespan_ns))
print(repr(report.serialized_ns))
print(repr(sorted((m.name, m.value) for m in report.metrics.counters())))
"""


def _run_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = "random"
    out = subprocess.run(
        [sys.executable, "-c", _TIMELINE_SNIPPET],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, check=True,
    )
    return out.stdout


class TestSchedulerDeterminism:
    def test_identical_runs_in_process(self, tiny_catalog):
        trace = lambda: generate_workload(
            tiny_catalog,
            WorkloadConfig(n_requests=60, mean_interarrival_ns=2_000.0),
            seed=21,
        )
        cfg = lambda: SchedulerConfig(spot_check_every=5)
        a = QueryScheduler(("v100s", "mi100"), tiny_catalog, cfg()).run(trace())
        b = QueryScheduler(("v100s", "mi100"), tiny_catalog, cfg()).run(trace())
        assert a.timeline() == b.timeline()
        assert a.makespan_ns == b.makespan_ns  # bit-identical, no approx
        assert a.serialized_ns == b.serialized_ns

    def test_bit_identical_across_interpreters(self):
        """Fresh interpreters: completion timeline, modeled ns and every
        service counter must round-trip byte-identically."""
        first, second = _run_fresh_interpreter(), _run_fresh_interpreter()
        assert first == second != ""

    def test_pool_order_is_part_of_the_contract(self, tiny_catalog):
        """Same devices, same trace: worker order changes assignment but
        each pool ordering is itself deterministic."""
        trace = lambda: generate_workload(
            tiny_catalog, WorkloadConfig(n_requests=40, mean_interarrival_ns=2_000.0), seed=2
        )
        a = QueryScheduler(("v100s", "mi100"), tiny_catalog).run(trace())
        b = QueryScheduler(("v100s", "mi100"), tiny_catalog).run(trace())
        assert a.timeline() == b.timeline()
