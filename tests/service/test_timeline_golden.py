"""Golden digests of the scheduler's modeled outcomes.

Each scenario serves one fixed trace under one seeded fault schedule and
hashes only modeled fields: the completion timeline, makespan and
serialized makespan, the sorted counters, every record's reason, gang
size, solo time, batch id and start, and every worker's dispatch count
and busy time.  A refactor of the serving loop must leave every digest
unchanged.

Scenarios:

* the chaos trace (the serve-sim smoke preset plus three gang jobs)
  under every scenario of the default chaos matrix, at fault seeds 0-3;
* a trace mixing 2- and 3-device gangs (one of them a ``pagerank`` gang,
  which has no multi-device runner) with per-request deadlines, a
  bounded queue and tracing on, under device-loss and exchange faults,
  at fault seeds 0-3.

``python -m tests.golden`` rewrites ``golden_timelines.json`` (only
when a modeled change is intended).
"""

import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import FaultInjector, parse_fault_rule
from repro.faults.chaos import DEFAULT_MATRIX, _build_requests
from repro.service.request import Request, RequestStatus
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.workload import WorkloadConfig, default_catalog, generate_workload
from tests.golden import Golden

FAULT_SEEDS = (0, 1, 2, 3)
CHAOS_POOL = ("v100s", "v100s", "mi100")
MIXED_POOL = ("v100s", "v100s", "mi100", "max1100")

#: rule sets for the mixed gang trace
MIXED_MATRIX = (
    ("loss", ("device_loss:0.04:1", "exchange:0.3:4")),
    ("storm", ("kernel_launch:0.003:3", "alloc:0.01:2", "device_loss:0.03:2",
               "exchange:0.2:3")),
)

#: single-device requests in the mixed trace; its gangs follow them
MIXED_SINGLES = 48
#: (algorithm, devices, arrival ns, priority) of the mixed trace's gangs
MIXED_GANGS = (
    ("bfs", 2, 5_000.0, 1),
    ("sssp", 3, 12_000.0, 2),
    ("pagerank", 2, 20_000.0, 0),
    ("cc", 3, 31_000.0, 1),
    ("bfs", 3, 44_000.0, 0),
    ("cc", 2, 60_000.0, 2),
)


def _catalog():
    return default_catalog(seed=0, scale="tiny")


def chaos_trace(catalog):
    return _build_requests(catalog, 0)


def mixed_trace(catalog):
    """Single-device traffic with per-request deadlines plus six gangs."""
    base = generate_workload(
        catalog,
        WorkloadConfig(n_requests=MIXED_SINGLES, mean_interarrival_ns=1_500.0),
        seed=11,
    )
    requests = [
        replace(r, timeout_ns=40_000.0 if r.req_id % 3 == 0 else None) for r in base
    ]
    for k, (algorithm, devices, arrival, priority) in enumerate(MIXED_GANGS):
        requests.append(
            Request(
                req_id=MIXED_SINGLES + k,
                algorithm=algorithm,
                graph=catalog[k % len(catalog)].name,
                source=k,
                layout=("2lb", "bitmap", "vector")[k % 3],
                priority=priority,
                arrival_ns=arrival,
                timeout_ns=None if algorithm == "pagerank" else 400_000.0,
                devices=devices,
            )
        )
    return requests


def serve(pool, catalog, requests, rules, fault_seed, **cfg):
    injector = (
        FaultInjector([parse_fault_rule(r) for r in rules], seed=fault_seed)
        if rules
        else None
    )
    scheduler = QueryScheduler(
        pool=pool, catalog=catalog,
        config=SchedulerConfig(fault_injector=injector, **cfg),
    )
    return scheduler.run(copy.deepcopy(requests))


def timeline_digest(report) -> str:
    """blake2b over the modeled fields of one serving report."""
    modeled = {
        "timeline": [
            [rid, status, float(finish), float(service), attempts, worker]
            for rid, status, finish, service, attempts, worker in report.timeline()
        ],
        "makespan_ns": float(report.makespan_ns),
        "serialized_ns": float(report.serialized_ns),
        "counters": [[m.name, float(m.value)] for m in report.metrics.counters()],
        "records": [
            [r.req_id, r.reason, r.gang, float(r.solo_ns), r.batch_id, float(r.start_ns)]
            for r in report.records
        ],
        "workers": [[w["dispatched"], float(w["busy_ns"])] for w in report.workers],
    }
    blob = json.dumps(modeled, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def scenarios():
    """Scenario name -> zero-argument callable returning its report."""
    catalog = _catalog()
    chaos = chaos_trace(catalog)
    mixed = mixed_trace(catalog)
    out = {}
    for seed in FAULT_SEEDS:
        for name, rules in DEFAULT_MATRIX:
            out[f"chaos/{name}/seed{seed}"] = (
                lambda rules=rules, seed=seed: serve(
                    CHAOS_POOL, catalog, chaos, rules, seed,
                    spot_check_every=5, keep_result_digests=True,
                )
            )
        for name, rules in MIXED_MATRIX:
            out[f"mixed/{name}/seed{seed}"] = (
                lambda rules=rules, seed=seed: serve(
                    MIXED_POOL, catalog, mixed, rules, seed,
                    max_queue_depth=24, trace=True, spot_check_every=3,
                )
            )
    return out


SCENARIOS = scenarios()
GOLDEN = Golden(
    Path(__file__).with_name("golden_timelines.json"),
    keys=list(SCENARIOS),
    cases=list(SCENARIOS),
    run=lambda name: {name: timeline_digest(SCENARIOS[name]())},
    indent=1,
)


def test_golden_covers_every_scenario():
    GOLDEN.assert_covers()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timeline_matches_golden(name):
    report = SCENARIOS[name]()
    assert timeline_digest(report) == GOLDEN.digests[name]
    if name.startswith("mixed/"):
        # the pagerank gang has no multi-device runner: a permanent
        # dispatch failure on its first and only attempt
        (pagerank,) = [
            r for r in report.records
            if r.req_id >= MIXED_SINGLES and r.algorithm == "pagerank"
        ]
        assert pagerank.status is RequestStatus.FAILED
        assert pagerank.attempts == 1
        assert "no gang (multi-device) implementation" in pagerank.reason
