"""The all-vertex advance's sweep record (``advance._Sweep``).

A :class:`CSRGraph` keeps, per launch configuration, the edges, launch
shape and read streams of an advance from every vertex, and the memory
counts of those streams, which later advances carry instead of having
their streams priced.  Every such advance must cost exactly what pricing
its streams afresh gives, and exactly what the per-call path gives,
which any graph that is not a ``CSRGraph`` still takes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.cc import cc
from repro.algorithms.pagerank import pagerank
from repro.checking.invariants import strict_mode
from repro.checking.oracle import oracle_cc, oracle_pagerank
from repro.exec.fusion import fuse_workloads
from repro.frontier import layout_bits_kwargs, make_frontier
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.dynamic import DynamicGraph
from repro.operators import advance, compute
from repro.operators.advance import AdvanceConfig
from repro.perfmodel.cost import CostModel
from repro.sycl.queue import Queue
from tests.perfmodel.test_bit_identity import DEVICES, assert_same_cost, reference_charge


class PerCallGraph:
    """A CSR graph behind the graph interface only: not a ``CSRGraph``, so
    every all-vertex advance expands and prices its edges afresh."""

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        return getattr(self._graph, name)


def _graph(queue, weighted, scale=8):
    """A symmetric R-MAT graph: 2,580 edges at scale 8, whose streams a
    batch holds, 5,684 at scale 9, past ``LARGE_STREAM``."""
    coo = gen.rmat(scale, 8, seed=4, weighted=weighted).symmetrized().without_self_loops()
    return GraphBuilder(queue).to_csr(coo)


def _sweeps(graph, layout, bits, output, fused):
    """Four all-vertex advances: each accepts every 2nd, 3rd or 5th edge,
    or none; submitted alone or with a compute kernel folded in, as the
    plan executor fuses them.  Returns the workloads submitted and the
    functor's effect: the weight each vertex received, and each call's
    output frontier."""
    queue = graph.queue
    n = graph.get_vertex_count()
    config = AdvanceConfig(params=replace(queue.inspect(), bitmap_bits=bits))
    out = make_frontier(queue, n, layout=layout, **layout_bits_kwargs(layout, bits)) if output else None
    received = np.zeros(n)
    submitted, effects = [], [received]
    for keep in (2, 3, 5, 0):

        def functor(src, dst, eid, w, keep=keep):
            np.add.at(received, dst, w)
            return eid % keep == 0 if keep else np.zeros(src.size, dtype=bool)

        wl = advance.vertices_workload(graph, out, functor, config)
        if fused:
            wl = fuse_workloads(wl, compute.execute_all_workload(graph, lambda ids: None))
        queue.submit(wl)
        submitted.append(wl)
        if out is not None:
            effects.append(np.sort(out.active_elements()))
            out.clear()
    return submitted, effects


@pytest.mark.parametrize("scale", [8, 9])
@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("output", [False, True], ids=["storeless", "output"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("layout", ["2lb", "bitmap", "boolmap", "vector"])
def test_every_sweep_prices_as_its_streams(layout, device, bits, weighted, output, fused, scale):
    """Each kernel's cost equals the frozen reference over its streams and
    the per-call path's cost, field by field; only an unfused kernel that
    writes no frontier carries the record's counts."""
    runs = {}
    for per_call in (False, True):
        queue = Queue(DEVICES[device](), capacity_limit=0)
        graph = _graph(queue, weighted, scale)
        submitted, effects = _sweeps(PerCallGraph(graph) if per_call else graph, layout, bits, output, fused)
        runs[per_call] = submitted, effects, queue.profile.costs
    (submitted, effects, costs), (_, per_call_effects, per_call_costs) = runs[False], runs[True]
    assert len(effects) == len(per_call_effects)
    for got, want in zip(effects, per_call_effects):
        np.testing.assert_array_equal(got, want)
    model = CostModel(DEVICES[device]())
    assert len(costs) == len(per_call_costs) == len(submitted)
    for wl, cost, expected in zip(submitted, costs, per_call_costs):
        assert_same_cost(cost, reference_charge(model, wl))
        assert_same_cost(cost, expected)
    # the call that accepts nothing writes no frontier
    carried = [wl.memory is not None for wl in submitted]
    assert carried == [not fused and not output] * 3 + [not fused]


def test_record_is_built_once_per_graph_and_configuration(queue):
    graph = _graph(queue, weighted=True)
    expansions = []
    gather = graph.gather_neighbors
    graph.gather_neighbors = lambda vertices: expansions.append(len(vertices)) or gather(vertices)
    first = pagerank(graph, max_iterations=3).ranks
    (record,) = graph.sweeps.values()
    assert pagerank(graph, max_iterations=3).ranks.tolist() == first.tolist()
    assert list(graph.sweeps.values()) == [record]
    assert expansions == [graph.n_vertices]
    assert record.memory is not None

    # another configuration: a record of its own, over the same edges
    wide_words = replace(queue.inspect(), bitmap_bits=64)
    advance.vertices(graph, None, lambda s, d, e, w: False, AdvanceConfig(params=wide_words))
    assert len(graph.sweeps) == 2
    (words64,) = [r for r in graph.sweeps.values() if r is not record]
    item_bytes = {(i, s.label): s.item_bytes for i, r in enumerate((record, words64)) for s in r.reads.streams}
    assert [item_bytes[i, "frontier.scan"] for i in range(2)] == [4, 8]
    assert words64.edges is record.edges
    assert expansions == [graph.n_vertices]
    arrays = list(record.edges) + [s.addresses for s in record.reads.streams]
    assert not any(a.flags.writeable for a in arrays)

    graph.free()
    assert graph.sweeps == {}


RUNS = {"pagerank": lambda g: pagerank(g, max_iterations=3).ranks, "cc": lambda g: cc(g).labels}


@pytest.mark.parametrize("algorithm", sorted(RUNS))
def test_free_drops_the_record_so_poisoned_frees_still_show(algorithm):
    """A run on a freed graph reads the poisoned buffers, as the per-call
    path does, not the record of the graph before it was freed."""
    run = RUNS[algorithm]
    outcomes = []
    for per_call in (False, True):
        queue = Queue(DEVICES["v100s"](), capacity_limit=0)
        with strict_mode(queue):
            graph = _graph(queue, weighted=False)
            view = PerCallGraph(graph) if per_call else graph
            before = run(view)
            graph.free()
            assert graph.sweeps == {}
            queue.reset_profile()
            after = run(view)
        assert not np.array_equal(before, after)
        outcomes.append((after, [(c.name, c.time_ns, c.l1.accesses) for c in queue.profile.costs]))
    (after, costs), (per_call_after, per_call_costs) = outcomes
    np.testing.assert_array_equal(after, per_call_after)
    assert costs == per_call_costs


@pytest.mark.parametrize("rebuild", [False, True], ids=["delta", "rebuilt"])
def test_dynamic_graph_matches_the_oracle_after_inserts(queue, rebuild):
    """A ``DynamicGraph`` is not a ``CSRGraph``: its all-vertex advances
    expand base and delta edges on every call, so inserts show."""
    coo = gen.erdos_renyi(120, 3.0, seed=5).symmetrized().without_self_loops()
    graph = DynamicGraph(queue, coo, rebuild_threshold=0.05 if rebuild else 10.0)
    pagerank(graph, max_iterations=2)
    cc(graph)
    rng = np.random.default_rng(6)
    src = rng.integers(0, 120, 40)
    dst = (src + 1 + rng.integers(0, 118, src.size)) % 120
    graph.insert_edges(np.concatenate([src, dst]), np.concatenate([dst, src]))
    assert graph.rebuilds == int(rebuild)
    now = graph.to_coo()
    np.testing.assert_allclose(
        pagerank(graph).ranks, oracle_pagerank(120, now.src, now.dst), rtol=1e-6, atol=1e-12
    )
    np.testing.assert_array_equal(cc(graph).labels, oracle_cc(120, now.src, now.dst))
    assert graph._base.sweeps == {}


@pytest.mark.parametrize("argument", ["src", "dst", "eid", "w"])
def test_a_functor_that_writes_its_arguments_raises(queue, argument):
    graph = _graph(queue, weighted=True)
    expected = graph.gather_neighbors(np.arange(graph.n_vertices))
    advance.vertices(graph, None, lambda s, d, e, w: False)

    def writes(src, dst, eid, w):
        dict(src=src, dst=dst, eid=eid, w=w)[argument][:] = 0
        return True

    with pytest.raises(ValueError, match="read-only"):
        advance.vertices(graph, None, writes)
    seen = []
    advance.vertices(graph, None, lambda *edges: seen.extend(edges) or False)
    assert len(seen) == 4
    for got, want in zip(seen, expected):
        np.testing.assert_array_equal(got, want)
