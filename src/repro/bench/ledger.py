"""The BENCH ledger: every pinned whole-run result, one record per case.

SYgraph's evaluation compares whole runs: frontier layouts against each
other (Fig. 7, Table 5) and frameworks against each other (Fig. 8,
Table 6).  The ledger holds such runs in four families of case keys
(:data:`KEY_PARTS`):

* core, ``<algorithm>/<layout>/<graph>/<n>dev/<fused|unfused>``: 96
  single-device cases (bfs/sssp/cc/pagerank × four layouts × three
  seeded graphs × {unfused, fused}, V100S) and 18 BSP gang cases
  (bfs/sssp/cc on 2lb × three graphs × {2, 4} devices);
* ``runner/<framework>/<algorithm>/<dataset>/<scale>/<device>``: every
  registered framework runner × the bfs, sssp, cc and bc it ships;
* ``extension/<algorithm>/<dataset>/<layout>/<scale>/<device>``:
  k-core, Jones-Plassmann and Luby MIS (seeds 0 and 1, written
  ``jones_plassmann(0)``) × four layouts;
* ``bitmap/<layout>/<bits>bit/<dataset>/<scale>/<device>``: the flat
  bitmap and the 2LB at 32- and 64-bit words on three devices.

The last three run the ``tiny`` kron and ca datasets, which do not read
the ledger's seed.  :func:`run_record` turns every single-device run
into a record: ``modeled_ns`` (whole ns), ``iterations``, ``digest``
(:func:`~repro.algorithms.catalog.result_digest`), ``kernels``,
``kernel_sequence`` (a digest of the kernel names in order),
``dram_bytes``, ``peak_bytes`` and a family's own fields.  A gang
record holds its BSP makespan (to 3 decimals), ``iterations``,
``digest``, ``wire_bytes`` and ``idlist_bytes``.  Every value is
deterministic: ``benchmarks/trajectory.py`` rewrites
``BENCH_ledger.json`` byte for byte, :func:`moved` compares two record
sets field by field, and ``python -m repro slo`` recomputes every case
against the file.  :func:`check_contracts` holds the invariants the
writer and the tier-1 tests enforce.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.algorithms.catalog import CATALOG, GraphBundle, result_digest
from repro.algorithms.coloring import jones_plassmann, luby_mis
from repro.algorithms.kcore import k_core
from repro.baselines.common import FrameworkRunner, make_runner, runner_class, runner_names
from repro.bench.harness import _ADVANCE_PREFIX
from repro.checking import graphgen
from repro.frontier import frontier_union, make_frontier
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.graph.datasets import load_dataset
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

#: the graphs, scale and devices of every family but core
DATASETS = ("kron", "ca")
SCALE = "tiny"
DEVICES = ("v100s", "mi100")
#: how the runner family calls each algorithm
RUNNER_CALLS = {
    "bfs": lambda runner: runner.bfs(1),
    "sssp": lambda runner: runner.sssp(1),
    "cc": lambda runner: runner.cc(),
    "bc": lambda runner: runner.bc([1, 2]),
}
#: the extension family's runs: name -> (entry(graph, layout=), result field)
EXTENSIONS = {
    "k_core": (k_core, "core_numbers"),
    **{
        f"{entry.__name__}({seed})": (partial(entry, seed=seed), field)
        for entry, field in ((jones_plassmann, "colors"), (luby_mis, "in_set"))
        for seed in (0, 1)
    },
}

#: each family's key parts; a core key has no family prefix
KEY_PARTS = {
    "core": ("algorithm", "layout", "graph", "devices", "fusion"),
    "runner": ("family", "framework", "algorithm", "graph", "scale", "device"),
    "extension": ("family", "algorithm", "graph", "layout", "scale", "device"),
    "bitmap": ("family", "layout", "bits", "graph", "scale", "device"),
}
#: the key parts that change cost, never results
COST_PARTS = frozenset({"layout", "fusion", "devices", "framework", "device", "bits"})


def graphs(seed: int) -> Dict[str, COOGraph]:
    """The three core graphs: a deep chain (one frontier vertex per
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
    """Every case the ledger records, family by family."""
    single = [
        case_key(a, layout, g, 1, fused)
        for g in GRAPHS for a in ALGORITHMS for layout in LAYOUTS for fused in (False, True)
    ]
    gang = [case_key(a, "2lb", g, d) for g in GRAPHS for a in GANG_ALGORITHMS for d in GANG_DEVICES]
    runner = [
        f"runner/{framework}/{a}/{g}/{SCALE}/{device}"
        for framework in runner_names() for a in RUNNER_CALLS if runner_class(framework).supports(a)
        for g in DATASETS for device in DEVICES
    ]
    extension = [
        f"extension/{a}/{g}/{layout}/{SCALE}/{device}"
        for a in EXTENSIONS for g in DATASETS for layout in LAYOUTS for device in DEVICES
    ]
    bitmap = [
        f"bitmap/{layout}/{bits}bit/kron/{SCALE}/{device}"
        for layout in ("bitmap", "2lb") for bits in (32, 64) for device in ("v100s", "mi100", "max1100")
    ]
    return single + gang + runner + extension + bitmap


def family(key: str) -> str:
    """A case key's family: its prefix, or ``core`` for a key without one."""
    head = key.split("/", 1)[0]
    return head if head in KEY_PARTS else "core"


def key_parts(key: str) -> Dict[str, str]:
    """A case key's parts by name (its family prefix under ``family``)."""
    return dict(zip(KEY_PARTS[family(key)], key.split("/")))


def result_group(key: str) -> str:
    """The key without the parts that change only cost: every case of
    one group computes one result."""
    return "/".join(v for name, v in key_parts(key).items() if name not in COST_PARTS)


def run_record(queue: Queue, values, iterations: int, **extra) -> dict:
    """The record of a finished single-device run on ``queue`` whose
    result array is ``values``, plus a family's ``extra`` fields."""
    profile = queue.profile
    names = [cost.name for cost in profile.costs]
    return {
        "modeled_ns": int(queue.elapsed_ns),
        "iterations": int(iterations),
        "digest": result_digest(values),
        "kernels": len(names),
        "kernel_sequence": hashlib.sha256("\n".join(names).encode()).hexdigest()[:16],
        "dram_bytes": int(profile.total_dram_bytes),
        "peak_bytes": int(queue.memory.peak_bytes),
        **extra,
    }


def _core_case(coos, algorithm, layout, graph, devices, fusion) -> Tuple[dict, Optional[float]]:
    spec = CATALOG[algorithm]
    n_devices = int(devices[: -len("dev")])
    if n_devices > 1:
        res = spec.dist(coos[graph], n_devices, 0, layout=layout)
        record = {
            "modeled_ns": round(res.makespan_ns, 3),
            "iterations": int(res.iterations),
            "digest": result_digest(spec.values(res)),
            "wire_bytes": int(res.wire_bytes),
            "idlist_bytes": int(res.idlist_bytes),
        }
        return record, round(res.makespan_naive_ns, 3)
    q = Queue(get_device(DEVICE), enable_profiling=True, capacity_limit=0)
    bundle = GraphBundle(graph, coos[graph], q)
    spec.inputs(bundle)
    q.reset_profile()
    res = spec.run(bundle, 0, layout=layout, fuse=fusion == "fused")
    return run_record(q, spec.values(res), res.iterations), None


def runner_record(runner: FrameworkRunner, algorithm: str) -> dict:
    """Run ``algorithm`` on a framework runner; its record adds the
    memory timeline's digest (taken the way ``fig9_memory`` takes it),
    the preprocessing ns, and Table 5's peak L1 hit rate and occupancy
    at the framework's advance prefix."""
    runner.reset_timers()
    memory = runner.queue.memory
    memory.reset_timeline()
    memory.tick("start")
    result = RUNNER_CALLS[algorithm](runner)
    steps, totals = memory.usage_trace()
    profile = runner.queue.profile
    prefix = _ADVANCE_PREFIX[runner.name]
    return run_record(
        runner.queue,
        CATALOG[algorithm].values(result),
        result.total_iterations if algorithm == "bc" else result.iterations,
        memory_trace=hashlib.sha256(steps.tobytes() + totals.tobytes()).hexdigest()[:16],
        preprocessing_ns=float(runner.preprocessing_ns),
        peak_l1_hit_rate=float(profile.peak_l1_hit_rate(prefix)),
        peak_occupancy=float(profile.peak_occupancy(prefix)),
    )


def _runner_case(framework, algorithm, graph, scale, device) -> dict:
    coo = load_dataset(graph, scale, weighted=True)
    return runner_record(make_runner(framework, coo, get_device(device)), algorithm)


def _extension_case(algorithm, graph, layout, scale, device) -> dict:
    entry, field = EXTENSIONS[algorithm]
    queue = Queue(get_device(device))
    csr = GraphBuilder(queue).to_csr(load_dataset(graph, scale).symmetrized().without_self_loops())
    queue.reset_profile()
    result = entry(csr, layout=layout)
    return run_record(queue, getattr(result, field), result.iterations)


def _bitmap_case(layout, bits, graph, scale, device) -> dict:
    """BFS (the push advance, the 2LB offsets kernel and the summary
    writes), CC, direction-optimizing BFS (the pull probe) and one
    ``frontier_union`` into the layout, all on one queue.  The digest
    covers the three results and the union's elements; the iterations
    are the three runs' sum; the record adds the number of allocations."""
    width = int(bits[: -len("bit")])
    queue = Queue(get_device(device), capacity_limit=0)
    bundle = GraphBundle(graph, load_dataset(graph, scale), queue)
    runs = {
        name: CATALOG[name].run(bundle, 0, layout=layout, bits=width) for name in ("bfs", "cc", "dobfs")
    }
    n = bundle.get("csr").get_vertex_count()
    a, b, out = (make_frontier(queue, n, layout=layout, bits=width) for _ in range(3))
    a.insert(np.arange(0, n, 3))
    b.insert(np.arange(0, n, 7))
    frontier_union(a, b, out)
    values = [CATALOG[name].values(result) for name, result in runs.items()]
    return run_record(
        queue,
        np.concatenate(values + [out.active_elements()]),
        sum(result.iterations for result in runs.values()),
        allocations=sum(1 for e in queue.memory.timeline if e.label.startswith("alloc:")),
    )


#: family -> run(**key parts) -> record, for every family but core
_FAMILY_CASES = {"runner": _runner_case, "extension": _extension_case, "bitmap": _bitmap_case}


def run_case(key: str, coos: Mapping[str, COOGraph]) -> Tuple[dict, Optional[float]]:
    """Run one case on fresh queues.

    Returns its record and, for a gang, the naive makespan bound
    (max per-device total plus total exchange, rounded like the
    makespan), which :func:`check_contracts` checks but the file does
    not store.  ``coos`` are the core graphs (:func:`graphs`).
    """
    parts = key_parts(key)
    run = _FAMILY_CASES.get(parts.pop("family", None))
    return (run(**parts), None) if run else _core_case(coos, **parts)


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


def moved(
    old: Mapping[str, dict], new: Mapping[str, dict]
) -> List[Tuple[str, str, Optional[float]]]:
    """Every ``(key, field, drift)`` of ``old`` whose value ``new`` does
    not repeat, in key order.  ``drift`` is a numeric field's movement
    in percent of its old value (of 1 where that is 0), or None for a
    string field (a digest, which no drift budget covers) and for a
    field ``new`` lacks."""
    out = []
    for key, record in sorted(old.items()):
        now = new.get(key, {})
        for name, value in sorted(record.items()):
            got = now.get(name)
            if got != value:
                numeric = not isinstance(value, str) and isinstance(got, (int, float))
                out.append((key, name, 100.0 * (got - value) / (value or 1) if numeric else None))
    return out


def moved_table(
    old: Mapping[str, dict], new: Mapping[str, dict], family_of: Callable[[str], str] = family
) -> List[str]:
    """One line per family (``family_of`` a key) and field of ``old``: how
    many of its records ``new`` moved, of how many, and the first three
    moved keys."""
    totals = Counter((family_of(key), name) for key, record in old.items() for name in record)
    keys = defaultdict(list)
    for key, name, _ in moved(old, new):
        keys[family_of(key), name].append(key)
    width = max((len(fam) for fam, _ in totals), default=0)
    lines = []
    for (fam, name), total in sorted(totals.items()):
        first = " ".join(keys[fam, name][:3])
        count = f"{len(keys[fam, name]):4d}/{total:<4d}"
        lines.append(f"{fam:{width}s} {name:18s} {count} {first}".rstrip())
    return lines


def check_contracts(
    records: Mapping[str, dict], naive_ns: Optional[Mapping[str, float]] = None
) -> List[str]:
    """The ledger's invariants over a record set → violation strings.

    * every record of one :func:`result_group` has one digest: layout,
      fusion, device count, device, word width and framework change
      cost, never results;
    * a fused case takes as many iterations as its unfused twin;
    * a gang's ghost exchange never ships more than the id list would;
    * a gang's makespan is at least its naive bound (``naive_ns``, which
      only the writer has);
    * fusion saves modeled ns on the :data:`FUSION_WINS` cases.
    """
    naive_ns = naive_ns or {}
    problems: List[str] = []
    group_digests = defaultdict(set)
    for key, rec in records.items():
        group_digests[result_group(key)].add(rec["digest"])
    for group, digests in sorted(group_digests.items()):
        if len(digests) > 1:
            problems.append(f"{group}: {len(digests)} different result digests")
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
