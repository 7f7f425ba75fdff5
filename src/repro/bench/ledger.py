"""The BENCH ledger: every modeled result, one record per case.

SYgraph's evaluation (Fig. 7, Tables 5–6) is one matrix of results over
algorithm × frontier layout × graph.  The ledger stores that matrix,
plus the fusion and multi-GPU axes, as one record per case keyed
``<algorithm>/<layout>/<graph>/<n>dev/<fused|unfused>``:

* 96 single-device cases — bfs/sssp/cc/pagerank × the four layouts ×
  three graphs × {unfused, fused}, on the V100S profile;
* 18 gang cases — bfs/sssp/cc on 2lb × three graphs × {2, 4} devices
  through the BSP engine (:mod:`repro.dist`), unfused.

A record holds only deterministic values: ``modeled_ns`` (the profiled
queue's elapsed ns, truncated to whole ns; a gang's BSP makespan,
rounded to 3 decimals),
``iterations`` and ``digest`` (a blake2b over the result array); gang
records add ``wire_bytes`` and ``idlist_bytes``.  So regenerating the
file is byte-identical, ``benchmarks/trajectory.py`` writes it as
``BENCH_ledger.json``, and ``python -m repro slo`` recomputes every case
against it with a 0% default budget.  :func:`check_contracts` holds the
invariants the writer and the tier-1 tests enforce.

CC always runs on the symmetrized graph.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import cc
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.checking import graphgen
from repro.dist import distributed_bfs, distributed_cc, distributed_sssp
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.sycl.device import get_device
from repro.sycl.queue import Queue

SEED = 7
DEVICE = "v100s"
ALGORITHMS = ("bfs", "sssp", "cc", "pagerank")
LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")
GRAPHS = ("chain", "power_law", "disconnected")
GANG_ALGORITHMS = ("bfs", "sssp", "cc")
GANG_DEVICES = (2, 4)
#: (algorithm, graph) pairs whose fused 2lb run must save modeled ns
FUSION_WINS = (("bfs", "chain"), ("cc", "power_law"))

_RESULT_FIELD = {"bfs": "distances", "sssp": "distances", "cc": "labels", "pagerank": "ranks"}
_RUNNERS = {
    "bfs": lambda graph, layout, fuse: bfs(graph, 0, layout=layout, fuse=fuse),
    "sssp": lambda graph, layout, fuse: sssp(graph, 0, layout=layout, fuse=fuse),
    "cc": lambda graph, layout, fuse: cc(graph, layout=layout, fuse=fuse),
    "pagerank": lambda graph, layout, fuse: pagerank(graph, layout=layout, fuse=fuse),
}
_GANG_RUNNERS = {
    "bfs": lambda coo, n, layout: distributed_bfs(coo, n, 0, layout=layout),
    "sssp": lambda coo, n, layout: distributed_sssp(coo, n, 0, layout=layout),
    "cc": lambda coo, n, layout: distributed_cc(coo, n, layout=layout),
}


def graphs(seed: int) -> Dict[str, COOGraph]:
    """The three ledger graphs: a deep chain (one frontier vertex per
    iteration for 2,000 iterations), a power-law graph and eight
    disconnected components."""
    return {
        "chain": graphgen.chain(2000).symmetrized(),
        "power_law": graphgen.power_law(n=1500, avg_degree=6.0, seed=seed),
        "disconnected": graphgen.disconnected(8, 187, seed=seed),
    }


def case_key(algorithm: str, layout: str, graph: str, devices: int = 1, fused: bool = False) -> str:
    return f"{algorithm}/{layout}/{graph}/{devices}dev/{'fused' if fused else 'unfused'}"


def case_keys() -> List[str]:
    """Every case the ledger records: 96 single-device, 18 gang."""
    single = [
        case_key(a, layout, g, 1, fused)
        for g in GRAPHS for a in ALGORITHMS for layout in LAYOUTS for fused in (False, True)
    ]
    gang = [case_key(a, "2lb", g, d) for g in GRAPHS for a in GANG_ALGORITHMS for d in GANG_DEVICES]
    return single + gang


def _digest(values) -> str:
    """Bit-exact digest of a result array: dtype, shape and a blake2b."""
    arr = np.ascontiguousarray(values)
    h = hashlib.blake2b(arr.tobytes(), digest_size=16)
    return f"{arr.dtype}:{arr.shape}:{h.hexdigest()}"


def run_case(key: str, coos: Mapping[str, COOGraph]) -> Tuple[dict, Optional[float]]:
    """Run one case on fresh queues.

    Returns its record and, for a gang, the naive makespan bound
    (max per-device total plus total exchange, rounded like the
    makespan), which :func:`check_contracts` checks but the file does
    not store.
    """
    algorithm, layout, graph, devices, fusion = key.split("/")
    n_devices = int(devices[: -len("dev")])
    coo = coos[graph].symmetrized() if algorithm == "cc" else coos[graph]
    if n_devices > 1:
        res = _GANG_RUNNERS[algorithm](coo, n_devices, layout)
        record = {
            "modeled_ns": round(res.makespan_ns, 3),
            "iterations": int(res.iterations),
            "digest": _digest(getattr(res, _RESULT_FIELD[algorithm])),
            "wire_bytes": int(res.wire_bytes),
            "idlist_bytes": int(res.idlist_bytes),
        }
        return record, round(res.makespan_naive_ns, 3)
    q = Queue(get_device(DEVICE), enable_profiling=True, capacity_limit=0)
    device_graph = GraphBuilder(q).to_csr(coo)
    q.reset_profile()
    res = _RUNNERS[algorithm](device_graph, layout, fusion == "fused")
    record = {
        "modeled_ns": int(q.elapsed_ns),
        "iterations": int(res.iterations),
        "digest": _digest(getattr(res, _RESULT_FIELD[algorithm])),
    }
    return record, None


def measure(keys: Iterable[str], seed: int) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Run ``keys`` over :func:`graphs` of ``seed``: records plus the
    gangs' naive makespan bounds."""
    coos = graphs(seed)
    records: Dict[str, dict] = {}
    bounds: Dict[str, float] = {}
    for key in keys:
        records[key], bound = run_case(key, coos)
        if bound is not None:
            bounds[key] = bound
    return records, bounds


def check_contracts(
    records: Mapping[str, dict], naive_ns: Optional[Mapping[str, float]] = None
) -> List[str]:
    """The ledger's invariants over a record set → violation strings.

    * every record of one (algorithm, graph) pair has one digest: layout,
      fusion and device count change cost, never results;
    * a fused case takes as many iterations as its unfused twin;
    * a gang's ghost exchange never ships more than the id list would;
    * a gang's makespan is at least its naive bound (``naive_ns``, which
      only the writer has);
    * fusion saves modeled ns on the :data:`FUSION_WINS` cases.
    """
    naive_ns = naive_ns or {}
    problems: List[str] = []
    pair_digests = defaultdict(set)
    for key, rec in records.items():
        algorithm, _, graph, _, _ = key.split("/")
        pair_digests[algorithm, graph].add(rec["digest"])
    for (algorithm, graph), digests in sorted(pair_digests.items()):
        if len(digests) > 1:
            problems.append(f"{algorithm}/{graph}: {len(digests)} different result digests")
    for key, rec in sorted(records.items()):
        twin = records.get(key[: -len("fused")] + "unfused") if key.endswith("/fused") else None
        if twin is not None and rec["iterations"] != twin["iterations"]:
            problems.append(
                f"{key}: {rec['iterations']} iterations, unfused {twin['iterations']}"
            )
        if "wire_bytes" in rec and rec["wire_bytes"] > rec["idlist_bytes"]:
            problems.append(
                f"{key}: wire bytes {rec['wire_bytes']} exceed id-list bytes {rec['idlist_bytes']}"
            )
        if key in naive_ns and rec["modeled_ns"] < naive_ns[key]:
            problems.append(
                f"{key}: makespan {rec['modeled_ns']} ns below the naive bound {naive_ns[key]} ns"
            )
    for algorithm, graph in FUSION_WINS:
        fused = records.get(case_key(algorithm, "2lb", graph, 1, True))
        unfused = records.get(case_key(algorithm, "2lb", graph, 1, False))
        if fused and unfused and fused["modeled_ns"] >= unfused["modeled_ns"]:
            problems.append(
                f"{case_key(algorithm, '2lb', graph, 1, True)}: fusion saves no modeled ns "
                f"({unfused['modeled_ns']} -> {fused['modeled_ns']})"
            )
    return problems


def write(path: Union[str, Path], seed: int, records: Mapping[str, dict]) -> None:
    """Write the ledger file: ``seed``, ``device`` and ``cases``, sorted keys."""
    ledger = {"seed": seed, "device": DEVICE, "cases": dict(records)}
    Path(path).write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
