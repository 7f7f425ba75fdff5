"""k-core, Jones-Plassmann and Luby MIS as plans: exact oracles on every
layout and device, one traced row per iteration, no per-round leak."""

import numpy as np
import pytest

from repro.algorithms import jones_plassmann, k_core, luby_mis, triangle_count
from repro.algorithms.coloring import _priorities
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import load_dataset
from repro.obs.span import iteration_breakdown
from repro.sycl import Queue, get_device
from tests.validation import reference_coloring, reference_kcore, reference_mis

LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")
DEVICES = ("v100s", "mi100", "max1100")


def _sym(dataset: str):
    return load_dataset(dataset, "tiny").symmetrized().without_self_loops()


def _graph(dataset: str, device: str = "v100s"):
    queue = Queue(get_device(device))
    return GraphBuilder(queue).to_csr(_sym(dataset)), queue


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dataset", ("kron", "ca"))
class TestMatchesReference:
    def test_k_core(self, dataset, layout, device):
        coo = _sym(dataset)
        graph, _ = _graph(dataset, device)
        want = reference_kcore(coo.n_vertices, coo.src, coo.dst)
        assert np.array_equal(k_core(graph, layout=layout).core_numbers, want)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_jones_plassmann(self, dataset, layout, device, seed):
        coo = _sym(dataset)
        graph, _ = _graph(dataset, device)
        prio = _priorities(coo.n_vertices, seed)
        want = reference_coloring(coo.n_vertices, coo.src, coo.dst, prio)
        got = jones_plassmann(graph, layout=layout, seed=seed).colors
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_luby_mis(self, dataset, layout, device, seed):
        coo = _sym(dataset)
        graph, _ = _graph(dataset, device)
        prio = _priorities(coo.n_vertices, seed)
        want = reference_mis(coo.n_vertices, coo.src, coo.dst, prio)
        assert np.array_equal(luby_mis(graph, layout=layout, seed=seed).in_set, want)


#: outer span name -> run on a graph, under a layout
RUNS = {
    "kcore": lambda g, layout="2lb": k_core(g, layout=layout),
    "color": lambda g, layout="2lb": jones_plassmann(g, layout=layout, seed=1),
    "mis": lambda g, layout="2lb": luby_mis(g, layout=layout, seed=1),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", ("color", "mis"))
def test_rounds_leave_no_allocation_behind(name, layout):
    """The winners frontier is built once per run, so JP and MIS leave
    exactly the allocations k-core leaves: their frontier pair."""
    live = {}
    for run in ("kcore", name):
        graph, queue = _graph("kron")
        RUNS[run](graph, layout)
        live[run] = len(queue.memory.live_allocations)
    assert live[name] == live["kcore"]


@pytest.mark.parametrize("name", RUNS)
def test_traced_run_has_one_row_per_iteration(name):
    graph, queue = _graph("kron")
    tracer = queue.enable_tracing()
    result = RUNS[name](graph)
    assert [span.name for span in tracer.root.children] == [name]
    rows = iteration_breakdown(tracer)
    assert len(rows) == result.iterations > 0
    assert {row["name"] for row in rows} == {f"{name}.iter"}
    assert [row["iteration"] for row in rows] == list(range(result.iterations))
    ticks = {e.label for e in queue.memory.timeline if e.delta == 0}
    prefix = "kcore.k" if name == "kcore" else f"{name}.round"
    assert ticks and all(label.startswith(prefix) for label in ticks)


def test_traced_triangles_is_one_span_without_rows():
    graph, queue = _graph("kron")
    tracer = queue.enable_tracing()
    assert triangle_count(graph) > 0
    (span,) = tracer.root.children
    assert span.name == "triangles" and span.kernel_count() == 1
    assert iteration_breakdown(tracer) == []
