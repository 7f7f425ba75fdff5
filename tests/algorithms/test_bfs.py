"""BFS correctness vs reference, across layouts, plus direction switching."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, direction_optimizing_bfs
from repro.algorithms.bc import bc
from repro.algorithms.cc import cc
from repro.algorithms.coloring import jones_plassmann, luby_mis
from repro.algorithms.kcore import k_core
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import delta_stepping, sssp
from repro.frontier import BITMAP_LAYOUTS, make_frontier
from repro.operators.advance import AdvanceConfig
from tests.validation import reference_bfs
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges
from repro.sycl import Queue

LAYOUTS = ["bitmap", "2lb", "vector", "boolmap"]


class TestCorrectness:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_reference_random_graph(self, weighted_random, layout):
        g, coo = weighted_random
        result = bfs(g, 0, layout=layout)
        ref = reference_bfs(coo.n_vertices, coo.src, coo.dst, 0)
        assert np.array_equal(result.distances, ref)

    def test_path_graph_depths(self, queue, builder):
        g = builder.to_csr(gen.path_graph(10))
        r = bfs(g, 0)
        assert list(r.distances) == list(range(10))
        # 9 productive levels + the terminal round that empties the frontier
        assert r.iterations == 10

    def test_unreachable_marked(self, queue):
        g = from_edges(queue, [0], [1], n_vertices=4)
        r = bfs(g, 0)
        assert r.distances[2] == -1 and r.distances[3] == -1
        assert r.visited == 2

    def test_star_graph_one_level(self, queue, builder):
        g = builder.to_csr(gen.star_graph(100))
        r = bfs(g, 0)
        assert r.iterations == 2  # one productive level + terminal round
        assert (r.distances[1:] == 1).all()

    def test_source_distance_zero(self, weighted_random):
        g, _ = weighted_random
        assert bfs(g, 5).distances[5] == 0

    def test_invalid_source(self, diamond):
        with pytest.raises(ValueError):
            bfs(diamond, 99)

    def test_max_iterations_cutoff(self, queue, builder):
        g = builder.to_csr(gen.path_graph(50))
        r = bfs(g, 0, max_iterations=3)
        assert r.iterations == 3
        assert (r.distances[4:] == -1).all()


class TestDeviceIndependence:
    @pytest.mark.parametrize("dev", ["v100s", "max1100", "mi100"])
    def test_results_identical_on_all_devices(self, dev):
        """Portability: same results on every backend (different cost only)."""
        from repro.sycl import get_device

        coo = gen.erdos_renyi(200, 4.0, seed=8)
        q = Queue(get_device(dev), capacity_limit=0)
        g = GraphBuilder(q).to_csr(coo)
        r = bfs(g, 0)
        ref = reference_bfs(coo.n_vertices, coo.src, coo.dst, 0)
        assert np.array_equal(r.distances, ref)


#: entry -> (module whose ``make_frontier`` builds its frontiers, the
#: number of frontiers it builds, run(builder, coo, layout, config) -> the
#: entry's per-vertex output)
CONFIGURED_ENTRIES = {
    "bfs": (
        "bfs", 2, lambda b, coo, layout, config: bfs(b.to_csr(coo), 0, layout=layout, config=config).distances
    ),
    "direction_optimizing_bfs": (
        "bfs",
        2,
        lambda b, coo, layout, config: direction_optimizing_bfs(
            b.to_csr(coo), b.to_csc(coo), 0, layout=layout, config=config
        ).distances,
    ),
    "sssp": (
        "sssp", 2, lambda b, coo, layout, config: sssp(b.to_csr(coo), 0, layout=layout, config=config).distances
    ),
    "delta_stepping": (
        "sssp",
        2,
        lambda b, coo, layout, config: delta_stepping(b.to_csr(coo), 0, layout=layout, config=config).distances,
    ),
    "cc": (
        "cc", 2, lambda b, coo, layout, config: cc(b.to_csr(coo.symmetrized()), layout=layout, config=config).labels
    ),
    "bc": (
        "bc", 3, lambda b, coo, layout, config: bc(b.to_csr(coo), sources=[0], layout=layout, config=config).scores
    ),
    "pagerank": (
        "pagerank",
        1,
        lambda b, coo, layout, config: pagerank(b.to_csr(coo), max_iterations=3, layout=layout, config=config).ranks,
    ),
    "k_core": (
        "kcore",
        2,
        lambda b, coo, layout, config: k_core(b.to_csr(_undirected(coo)), layout=layout, config=config).core_numbers,
    ),
    "jones_plassmann": (
        "coloring",
        2,
        lambda b, coo, layout, config: jones_plassmann(b.to_csr(_undirected(coo)), layout=layout, config=config).colors,
    ),
    "luby_mis": (
        "coloring",
        2,
        lambda b, coo, layout, config: luby_mis(b.to_csr(_undirected(coo)), layout=layout, config=config).in_set,
    ),
}

#: the BFS entries, whose output the queue-free BFS oracle checks
BFS_ENTRIES = ("bfs", "direction_optimizing_bfs")


def _undirected(coo):
    return coo.symmetrized().without_self_loops()


class TestConfiguredWordWidth:
    @pytest.mark.parametrize("layout", BITMAP_LAYOUTS)
    @pytest.mark.parametrize("entry", list(CONFIGURED_ENTRIES))
    def test_config_width_reaches_every_bitmap_layout(self, queue, builder, monkeypatch, layout, entry):
        """Without ``bits``, a ``config.params`` word width builds every
        frontier of every algorithm entry, in every bitmap-family layout
        (the tree's included), at that width rather than the device's
        default; the output is the default width's, and the BFS entries'
        is the oracle's."""
        module, n_frontiers, run = CONFIGURED_ENTRIES[entry]
        coo = gen.erdos_renyi(200, 4.0, seed=8, weighted=True)
        want = run(builder, coo, layout, None)
        made = []

        def recording_make_frontier(*args, **kwargs):
            made.append(make_frontier(*args, **kwargs))
            return made[-1]

        algorithm = importlib.import_module(f"repro.algorithms.{module}")
        monkeypatch.setattr(algorithm, "make_frontier", recording_make_frontier)
        assert queue.inspect().bitmap_bits == 32
        config = AdvanceConfig(params=replace(queue.inspect(), bitmap_bits=64))
        got = run(builder, coo, layout, config)
        assert np.array_equal(got, want)
        if entry in BFS_ENTRIES:
            assert np.array_equal(got, reference_bfs(coo.n_vertices, coo.src, coo.dst, 0))
        assert [f.bits for f in made] == [64] * n_frontiers


class TestDirectionOptimizing:
    def test_matches_push_bfs(self, queue, builder):
        coo = gen.preferential_attachment(500, 6, seed=21)
        g = builder.to_csr(coo)
        csc = builder.to_csc(coo)
        r = direction_optimizing_bfs(g, csc, 0)
        ref = reference_bfs(coo.n_vertices, coo.src, coo.dst, 0)
        assert np.array_equal(r.distances, ref)

    def test_pull_kernels_used_on_dense_graph(self, queue, builder):
        coo = gen.preferential_attachment(500, 20, seed=22)
        g = builder.to_csr(coo)
        csc = builder.to_csc(coo)
        direction_optimizing_bfs(g, csc, 0, alpha=20.0)
        names = {c.name for c in queue.profile.costs}
        assert "advance.frontier.pull" in names

    def test_road_graph_mostly_push(self, queue, builder):
        """Road graphs pull in far fewer iterations than dense scale-free
        graphs (on tiny grids the alpha threshold can trip near the end)."""

        def pull_fraction(coo):
            q = Queue(capacity_limit=0)
            b = GraphBuilder(q)
            g, csc = b.to_csr(coo), b.to_csc(coo)
            r = direction_optimizing_bfs(g, csc, 0)
            pulls = sum(1 for c in q.profile.costs if c.name == "advance.frontier.pull")
            return pulls / max(1, r.iterations)

        road = pull_fraction(gen.road_network(40, 40, seed=23))
        dense = pull_fraction(gen.preferential_attachment(1000, 20, seed=23))
        assert road < 0.3
        assert dense > road


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=1, max_size=150),
    source=st.integers(0, 39),
)
def test_bfs_matches_reference_property(edges, source):
    """BFS equals the reference on arbitrary digraphs from any source."""
    queue = Queue(capacity_limit=0)
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    g = from_edges(queue, src, dst, n_vertices=40)
    result = bfs(g, source)
    ref = reference_bfs(40, src, dst, source)
    assert np.array_equal(result.distances, ref)
