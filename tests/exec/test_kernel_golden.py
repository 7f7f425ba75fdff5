"""Golden kernel costs of every operator path, and span trees of every
catalog row.

Two kinds of case pin what the BENCH ledger's whole-run records do not
reach.

* Operator cases run one operator on a fresh queue over a weighted R-MAT
  graph (1,024 vertices): the push advance (with and without an output
  frontier), the pull advance, the all-vertex advance (twice without an
  output frontier, then once with one), compute over a frontier and over
  every vertex, filter in place and into a second frontier, union,
  intersection and subtraction with operands of one layout (the
  word-parallel path for the bitmap layouts, the generic path for the
  others) and with an output of another layout (always the generic
  path), segmented intersection, V2E and E2V.  Each runs over the 2lb,
  bitmap, vector, boolmap and 3-layer tree layouts, from a sparse input
  (a few ids, the small-input paths) and a dense one, on the V100S, the
  MI100 and the MAX 1100; triangle counting runs once per device.  The
  digest covers every field of every ``KernelCost`` the queue logged
  (each value's ``repr`` and Python type, in order) and the elements of
  the operator's output frontier.
* Trace cases run each catalog row the way ``python -m repro trace``
  does (R-MAT scale 7, source 0, PageRank capped at 20 iterations),
  fused and unfused, over four layouts on the V100S and the MI100, and
  digest the event list of :func:`repro.obs.export.trace_events`: every
  span, every kernel's place and cost in it, and every counter sample.
  Each trace case also pins the row's result (its ``result_digest``,
  under the case's ``result/...`` key), so a change to what an
  algorithm computes fails even when its spans and kernels stay put.

A change to how the operators characterize kernels, or to how the plan
executor opens spans and submits kernels, must leave every digest
unchanged.  ``python -m tests.golden`` rewrites ``golden_kernels.json``
(only when a modeled change is intended).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.catalog import CATALOG, GraphBundle, result_digest
from repro.algorithms.triangles import triangle_count
from repro.frontier import FrontierView, make_frontier
from repro.frontier.ops import frontier_intersection, frontier_subtraction, frontier_union
from repro.graph.builder import GraphBuilder
from repro.graph.generators import rmat
from repro.obs.export import trace_events
from repro.operators import advance, compute, edge_advance
from repro.operators import filter as filter_op
from repro.operators.intersection import segmented_intersection
from repro.sycl import Queue, get_device
from tests.golden import Golden

LAYOUTS = ("2lb", "bitmap", "vector", "boolmap", "tree")
DENSITIES = ("sparse", "dense")
DEVICES = ("v100s", "mi100", "max1100")
#: the generic set-op path's output layout, per operand layout
OTHER_LAYOUT = {"2lb": "vector", "bitmap": "boolmap", "tree": "vector", "vector": "2lb", "boolmap": "tree"}

TRACE_LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")
TRACE_DEVICES = ("v100s", "mi100")
TRACE_KEYWORDS = {"pagerank": {"max_iterations": 20}}


def accept(src, dst, eid, w):
    return (src + dst) % 3 != 1


def keep_fifth(ids):
    return ids % 5 == 0


def touch(ids):
    """A compute functor: the kernel's writes are what the cost model sees."""


class Env:
    """One operator case's queue, graphs and frontier factory."""

    def __init__(self, layout: str, density: str, device: str):
        self.layout = layout
        self.queue = Queue(get_device(device), capacity_limit=0)
        self.coo = rmat(10, 8, seed=5, weighted=True)
        builder = GraphBuilder(self.queue)
        self.csr = builder.to_csr(self.coo)
        self.csc = builder.to_csc(self.coo)
        self.n = self.csr.get_vertex_count()
        self.m = self.csr.get_edge_count()
        ids = np.arange(self.n)
        edges = np.arange(self.m)
        # sparse: a few dozen ids, the small-input paths; dense: enough
        # written ids for a vector's tail bumps to count several workgroups
        if density == "sparse":
            self.seeds, self.others, self.edges = ids[ids % 37 == 5], ids[ids % 41 == 3], edges[edges % 331 == 2]
        else:
            self.seeds, self.others, self.edges = ids[ids % 8 != 0], ids[ids % 5 != 0], edges[edges % 3 != 0]

    def frontier(self, ids=None, layout=None, view=FrontierView.VERTEX):
        layout = layout or self.layout
        kwargs = {"n_layers": 3} if layout == "tree" else {}
        n = self.m if view is FrontierView.EDGE else self.n
        f = make_frontier(self.queue, n, view, layout=layout, **kwargs)
        if ids is not None:
            f.insert(ids)
        return f


def push(env):
    out = env.frontier()
    advance.frontier(env.csr, env.frontier(env.seeds), out, accept)
    return out


def push_storeless(env):
    advance.frontier(env.csr, env.frontier(env.seeds), None, accept)


def pull(env):
    out = env.frontier()
    candidates = np.setdiff1d(np.arange(env.n), env.seeds)
    advance.frontier_pull(env.csc, env.frontier(env.seeds), out, accept, candidates)
    return out


def vertices(env):
    advance.vertices(env.csr, None, accept)
    advance.vertices(env.csr, None, accept)
    out = env.frontier()
    advance.vertices(env.csr, out, accept)
    return out


def compute_frontier(env):
    compute.execute(env.csr, env.frontier(env.seeds), touch)


def compute_all(env):
    compute.execute_all(env.csr, touch, write_bytes=4)


def filter_inplace(env):
    f = env.frontier(env.seeds)
    filter_op.inplace(env.csr, f, keep_fifth)
    return f


def filter_external(env):
    out = env.frontier(env.others)
    filter_op.external(env.csr, env.frontier(env.seeds), out, keep_fifth)
    return out


def set_op(fn, mixed: bool):
    def run(env):
        out = env.frontier(layout=OTHER_LAYOUT[env.layout] if mixed else None)
        fn(env.frontier(env.seeds), env.frontier(env.others), out)
        return out

    return run


def segmented(env):
    out = env.frontier()
    segmented_intersection(env.csr, env.frontier(env.seeds), env.frontier(env.others), out)
    return out


def v2e(env):
    out = env.frontier(view=FrontierView.EDGE)
    edge_advance.vertices_to_edges(env.csr, env.frontier(env.seeds), out, accept)
    return out


def e2v(env):
    out = env.frontier()
    edge_advance.edges_to_vertices(env.csr, env.frontier(env.edges, view=FrontierView.EDGE), out, accept)
    return out


OPERATORS = {
    "advance.frontier": push,
    "advance.frontier.storeless": push_storeless,
    "advance.frontier.pull": pull,
    "advance.vertices": vertices,
    "compute.execute": compute_frontier,
    "compute.execute_all": compute_all,
    "filter.inplace": filter_inplace,
    "filter.external": filter_external,
    **{
        f"frontier.{name}{'.mixed' if mixed else ''}": set_op(fn, mixed)
        for name, fn in (
            ("union", frontier_union),
            ("intersection", frontier_intersection),
            ("subtraction", frontier_subtraction),
        )
        for mixed in (False, True)
    },
    "intersection.segmented": segmented,
    "advance.v2e": v2e,
    "advance.e2v": e2v,
}

OPERATOR_CASES = [
    f"{op}/{layout}/{density}/{device}"
    for op in OPERATORS
    for layout in LAYOUTS
    for density in DENSITIES
    for device in DEVICES
] + [f"triangles/{device}" for device in DEVICES]

TRACE_CASES = [
    f"trace/{algorithm}/{layout}/{'fused' if fused else 'unfused'}/{device}"
    for algorithm in CATALOG
    for layout in TRACE_LAYOUTS
    for fused in (False, True)
    for device in TRACE_DEVICES
]


def _typed(value):
    """A value's fields as nested ``(name, (type, repr))`` pairs."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _typed(getattr(value, f.name))) for f in dataclasses.fields(value))
    return type(value).__name__, repr(value)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_operator_case(case: str) -> str:
    if case.startswith("triangles/"):
        queue = Queue(get_device(case.split("/")[1]), capacity_limit=0)
        coo = rmat(8, 8, seed=5).symmetrized().without_self_loops()
        graph = GraphBuilder(queue).to_csr(coo)
        queue.reset_profile()
        out, count = None, triangle_count(graph)
    else:
        op, layout, density, device = case.rsplit("/", 3)
        env = Env(layout, density, device)
        queue = env.queue
        queue.reset_profile()
        out, count = OPERATORS[op](env), None
    record = [_typed(cost) for cost in queue.profile.costs]
    record.append(count if out is None else out.active_elements().tolist())
    return _digest(repr(record))


def result_case(case: str) -> str:
    """The golden key of a trace case's result digest."""
    return "result/" + case.split("/", 1)[1]


def run_trace_case(case: str):
    """The digests of a trace case's exported events and of its result."""
    _, algorithm, layout, fused, device = case.split("/")
    queue = Queue(get_device(device), capacity_limit=0)
    tracer = queue.enable_tracing()
    coo = rmat(7, 8, seed=0, weighted=True)
    spec = CATALOG[algorithm]
    result = spec.run(
        GraphBundle("rmat", coo, queue), 0,
        layout=layout, fuse=fused == "fused", **TRACE_KEYWORDS.get(algorithm, {}),
    )
    digest = _digest(json.dumps(trace_events(tracer), sort_keys=True))
    # every profiled kernel, fused or not, belongs to the span tree
    assert tracer.root.kernel_count() == len(queue.profile.costs)
    return digest, result_digest(spec.values(result))


def run_case(case: str) -> dict:
    """Golden key -> digest, for one case."""
    if case.startswith("trace/"):
        events, result = run_trace_case(case)
        return {case: events, result_case(case): result}
    return {case: run_operator_case(case)}


GOLDEN = Golden(
    Path(__file__).with_name("golden_kernels.json"),
    keys=OPERATOR_CASES + TRACE_CASES + [result_case(case) for case in TRACE_CASES],
    cases=OPERATOR_CASES + TRACE_CASES,
    run=run_case,
    indent=2,
)


def test_golden_covers_every_case():
    GOLDEN.assert_covers()


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_operator_kernels_match_golden(case):
    assert run_operator_case(case) == GOLDEN.digests[case]


@pytest.mark.parametrize("case", TRACE_CASES)
def test_trace_matches_golden(case):
    events, result = run_trace_case(case)
    assert events == GOLDEN.digests[case]
    assert result == GOLDEN.digests[result_case(case)]
