"""End-to-end integration: IO -> build -> algorithms -> frontier ops,
all through the public API, plus cross-module consistency checks."""

import io

import numpy as np
import pytest

from repro.algorithms import bfs, cc, pagerank, sssp
from tests.validation import reference_bfs
from repro.frontier import frontier_subtraction, frontier_union, make_frontier
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.io import read_edge_list, save_npz, load_npz, write_edge_list
from repro.operators import advance, compute
from repro.sycl import Queue, get_device


class TestFileToAnalysis:
    def test_edge_list_to_bfs(self, queue, tmp_path):
        """Write a graph to disk, read it back, run BFS — the full user
        pipeline from the IO API to results."""
        coo = gen.erdos_renyi(100, 4.0, seed=17)
        path = tmp_path / "graph.txt"
        write_edge_list(coo, path)
        loaded = read_edge_list(path, n_vertices=100)
        g = GraphBuilder(queue).to_csr(loaded)
        r = bfs(g, 0)
        ref = reference_bfs(100, coo.src, coo.dst, 0)
        assert np.array_equal(r.distances, ref)

    def test_npz_cache_pipeline(self, queue, tmp_path):
        coo = gen.rmat(7, 8, seed=18)
        save_npz(coo, tmp_path / "g.npz")
        g = GraphBuilder(queue).to_csr(load_npz(tmp_path / "g.npz"))
        assert g.n_edges == coo.n_edges


class TestListing1Transcription:
    def test_bfs_written_like_the_paper(self, queue):
        """Literal transcription of Listing 1 against the public API."""
        from repro.frontier import swap

        coo = gen.preferential_attachment(300, 5, seed=19)
        G = GraphBuilder(queue).to_csr(coo)
        in_frontier = make_frontier(queue, G.get_vertex_count())
        out_frontier = make_frontier(queue, G.get_vertex_count())
        src = 0
        in_frontier.insert(src)
        size = G.get_vertex_count()
        dist = np.full(size, size + 1, dtype=np.int64)
        dist[src] = 0
        it = 0
        while not in_frontier.empty():
            advance.frontier(
                G, in_frontier, out_frontier,
                lambda u, v, e, w: ~(dist[v] < size + 1),
            ).wait()
            depth = it + 1
            compute.execute(G, out_frontier, lambda v: dist.__setitem__(v, depth)).wait()
            swap(in_frontier, out_frontier)
            out_frontier.clear()
            it += 1
        ref = reference_bfs(size, coo.src, coo.dst, src)
        dist[dist == size + 1] = -1
        assert np.array_equal(dist, ref)


class TestCrossAlgorithmConsistency:
    def test_bfs_reachability_equals_cc_component_directed_sym(self, queue):
        """On a symmetric graph, BFS from v reaches exactly v's component."""
        coo = gen.erdos_renyi(150, 1.2, seed=20).symmetrized()
        g = GraphBuilder(queue).to_csr(coo)
        comp = cc(g)
        r = bfs(g, 0)
        reached = set(np.nonzero(r.distances >= 0)[0])
        same_comp = set(np.nonzero(comp.labels == comp.labels[0])[0])
        assert reached == same_comp

    def test_sssp_lower_bounded_by_bfs_times_min_weight(self, queue):
        coo = gen.erdos_renyi(100, 4.0, seed=21, weighted=True)
        g = GraphBuilder(queue).to_csr(coo)
        b = bfs(g, 0)
        s = sssp(g, 0)
        reached = b.distances > 0
        min_w = float(np.asarray(g.weights).min())
        assert (s.distances[reached] >= b.distances[reached] * min_w - 1e-6).all()

    def test_pagerank_mass_on_bfs_reachable_graph(self, queue):
        coo = gen.preferential_attachment(200, 4, seed=22)
        g = GraphBuilder(queue).to_csr(coo)
        pr = pagerank(g)
        assert pr.ranks.min() > 0


class TestFrontierAlgebraWithAlgorithms:
    def test_bfs_levels_partition_reachable_set(self, queue):
        """Level frontiers (via filter on depth) are disjoint and union to
        the reachable set — exercised through frontier operators."""
        coo = gen.erdos_renyi(120, 3.0, seed=23)
        g = GraphBuilder(queue).to_csr(coo)
        r = bfs(g, 0)
        n = g.get_vertex_count()
        union = make_frontier(queue, n)
        scratch = make_frontier(queue, n)
        for depth in range(r.iterations + 1):
            level = make_frontier(queue, n)
            ids = np.nonzero(r.distances == depth)[0]
            if ids.size:
                level.insert(ids)
            frontier_union(union, level, scratch)
            from repro.frontier import swap

            swap(union, scratch)
        assert union.count() == r.visited

    def test_subtraction_removes_visited(self, queue):
        coo = gen.erdos_renyi(80, 3.0, seed=24)
        g = GraphBuilder(queue).to_csr(coo)
        r = bfs(g, 0)
        n = g.get_vertex_count()
        all_f = make_frontier(queue, n)
        all_f.insert(np.arange(n))
        visited = make_frontier(queue, n)
        visited.insert(np.nonzero(r.distances >= 0)[0])
        unvisited = make_frontier(queue, n)
        frontier_subtraction(all_f, visited, unvisited)
        assert unvisited.count() == n - r.visited


class TestSimulatedTimeSanity:
    def test_time_scales_with_graph_size(self):
        times = {}
        for n in (200, 2000):
            q = Queue(get_device("v100s"), capacity_limit=0)
            coo = gen.preferential_attachment(n, 8, seed=25)
            g = GraphBuilder(q).to_csr(coo)
            q.reset_profile()
            bfs(g, 0)
            times[n] = q.elapsed_ns
        assert times[2000] > times[200]

    def test_memory_timeline_recorded_during_bfs(self, queue):
        coo = gen.erdos_renyi(100, 3.0, seed=26)
        g = GraphBuilder(queue).to_csr(coo)
        queue.memory.reset_timeline()
        bfs(g, 0)
        labels = [e.label for e in queue.memory.timeline]
        assert any(l.startswith("bfs.iter") for l in labels)
