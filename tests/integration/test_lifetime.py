"""The device-buffer lifetime contract: a run leaves its queue as it
found it.

Every algorithm entry point and every framework runner's driver runs its
body in one :meth:`~repro.sycl.queue.Queue.scope`, so after a run,
finished or cut short by an injected fault, the queue's live bytes and
live-allocation list equal their values before it.  Graph
representations are built before the run and stay cached.
"""

import pytest

from repro.algorithms import jones_plassmann, k_core, luby_mis
from repro.algorithms.catalog import CATALOG, GraphBundle
from repro.baselines import make_runner, runner_names
from repro.bench.harness import measure
from repro.errors import AllocationFault, KernelLaunchError
from repro.faults import FaultInjector, FaultRule
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import load_dataset
from repro.sycl import Queue

LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")
EXTENSIONS = {"kcore": k_core, "jp": jones_plassmann, "mis": luby_mis}


def live(queue):
    """Live bytes and ``(id, label)`` of every live allocation."""
    memory = queue.memory
    return memory.bytes_in_use, [(a.alloc_id, a.label) for a in memory.live_allocations]


@pytest.fixture(scope="module")
def kron():
    return load_dataset("kron", "tiny", weighted=True)


def _row(coo, name: str):
    """A queue holding every graph catalog row ``name`` reads, and a
    call that runs the row from source 1."""
    queue = Queue(capacity_limit=0)
    bundle = GraphBundle("kron", coo, queue)
    spec = CATALOG[name]
    for representation in spec.graphs:
        bundle.get(representation)
    return queue, lambda **kwargs: spec.run(bundle, 1, **kwargs)


def _drive(runner, algorithm: str):
    if algorithm == "cc":
        return runner.cc()
    if algorithm == "bc":
        return runner.bc([1, 2])
    return getattr(runner, algorithm)(1)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_row_leaves_nothing(kron, name, layout):
    queue, run = _row(kron, name)
    before = live(queue)
    for fuse in (False, True):
        run(layout=layout, fuse=fuse)
        assert live(queue) == before


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", list(EXTENSIONS))
def test_extension_leaves_nothing(kron, name, layout):
    queue = Queue(capacity_limit=0)
    graph = GraphBuilder(queue).to_csr(kron.symmetrized().without_self_loops())
    before = live(queue)
    EXTENSIONS[name](graph, layout=layout)
    assert live(queue) == before


@pytest.mark.parametrize("framework", runner_names())
def test_runner_leaves_nothing(kron, framework):
    runner = make_runner(framework, kron)
    before = live(runner.queue)
    ran = [a for a in ("bfs", "sssp", "cc", "bc") if runner.supports(a)]
    for algorithm in ran:
        _drive(runner, algorithm)
        assert live(runner.queue) == before, algorithm
    assert len(ran) == (3 if framework == "sep" else 4)


def _runner_case(framework: str, algorithm: str):
    def make(coo):
        runner = make_runner(framework, coo)
        return runner.queue, lambda: _drive(runner, algorithm)

    return make


ERRORS = {"kernel_launch": KernelLaunchError, "alloc": AllocationFault}

#: case -> (queue and run factory, fault site, the allocation an alloc
#: fault hits)
FAULTED = {
    "bfs/kernel_launch": (lambda coo: _row(coo, "bfs"), "kernel_launch", None),
    "bc/alloc": (lambda coo: _row(coo, "bc"), "alloc", "frontier.2lb.l1"),
    "gunrock/bc/kernel_launch": (_runner_case("gunrock", "bc"), "kernel_launch", None),
    "sep/bfs/alloc": (_runner_case("sep", "bfs"), "alloc", "sep.pull.stage"),
}


@pytest.mark.parametrize("case", list(FAULTED))
def test_run_cut_short_by_a_fault_leaves_nothing(kron, case):
    """The fault arms once the run's first kernel has run, so it cuts
    the run short with buffers and frontiers live: BC's fails building
    its backward frontier, SEP-Graph's its first pull's staging buffer."""
    make, site, label = FAULTED[case]
    queue, run = make(kron)
    before = live(queue)
    injector = FaultInjector([FaultRule(site, after_ns=queue.elapsed_ns + 1.0)])
    queue.enable_fault_injection(injector)
    with pytest.raises(ERRORS[site]):
        run()
    assert len(injector.fired) == 1
    if label is not None:
        assert injector.fired[0].context["label"] == label
    assert live(queue) == before
    queue.disable_fault_injection()
    run()
    assert live(queue) == before


@pytest.mark.parametrize("framework", runner_names())
def test_measured_peak_does_not_grow_with_sources(framework):
    """``measure`` reads the peak after all its sources, which Table 6's
    OOM projection scales: a run that leaves nothing keeps it flat."""
    peaks = [measure(framework, "kron", "bc", n_sources=n, scale="tiny").peak_bytes for n in (1, 3)]
    assert peaks[0] == peaks[1]
