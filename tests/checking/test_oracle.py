"""The pure-Python oracle: hand-checked cases + agreement with the
scipy/networkx references (which the oracle deliberately does not use)."""

import numpy as np
import pytest

from tests import validation as ref
from repro.checking import oracle
from repro.checking.graphgen import chain, duplicate_edge_graph, star
from repro.graph import generators as gen


class TestHandChecked:
    def test_bfs_chain(self):
        g = chain(5)
        assert list(oracle.oracle_bfs(5, g.src, g.dst, 0)) == [0, 1, 2, 3, 4]
        assert list(oracle.oracle_bfs(5, g.src, g.dst, 3)) == [-1, -1, -1, 0, 1]

    def test_bfs_star(self):
        g = star(6)
        assert list(oracle.oracle_bfs(6, g.src, g.dst, 0)) == [0, 1, 1, 1, 1, 1]
        # from a spoke: hub at 1, other spokes at 2
        assert list(oracle.oracle_bfs(6, g.src, g.dst, 2)) == [1, 2, 0, 2, 2, 2]

    def test_sssp_weighted_diamond(self):
        #     0 --1--> 1 --1--> 3
        #     0 --5--> 2 --1--> 3   (short path through 1 wins)
        src, dst = [0, 1, 0, 2], [1, 3, 2, 3]
        w = [1.0, 1.0, 5.0, 1.0]
        d = oracle.oracle_sssp(4, src, dst, w, 0)
        assert list(d) == [0.0, 1.0, 5.0, 2.0]

    def test_cc_two_components(self):
        labels = oracle.oracle_cc(5, [0, 3], [1, 4])
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert labels[2] not in (labels[0], labels[3])

    def test_cc_labels_are_min_ids(self):
        labels = oracle.oracle_cc(4, [3, 1], [1, 2])
        assert list(labels) == [0, 1, 1, 1]

    def test_bc_chain_interior(self):
        # In a 4-chain from source 0, vertex 1 lies on paths to 2 and 3,
        # vertex 2 on the path to 3.
        g = chain(4)
        scores = oracle.oracle_bc(4, g.src, g.dst, sources=[0])
        assert list(scores) == [0.0, 2.0, 1.0, 0.0]

    def test_bc_parallel_edges_are_distinct_paths(self):
        # 0=>1 (twice) ->2: both shortest 0->2 paths run through vertex 1,
        # so its pair-dependency is still 1; sigma doubles but ratios hold.
        scores = oracle.oracle_bc(3, [0, 0, 1], [1, 1, 2], sources=[0])
        assert scores[1] == pytest.approx(1.0)

    def test_pagerank_uniform_on_cycle(self):
        # A directed cycle is perfectly symmetric: ranks must stay 1/n.
        n = 6
        v = np.arange(n)
        ranks = oracle.oracle_pagerank(n, v, (v + 1) % n)
        assert np.allclose(ranks, 1.0 / n)

    def test_empty_graph(self):
        z = np.empty(0, dtype=np.int64)
        assert list(oracle.oracle_bfs(3, z, z, 1)) == [-1, 0, -1]
        assert np.isinf(oracle.oracle_sssp(3, z, z, None, 1)[[0, 2]]).all()
        assert list(oracle.oracle_cc(3, z, z)) == [0, 1, 2]


class TestAgainstReferences:
    """The oracle must agree with the scipy/networkx reference layer —
    two independent implementations of the same specification."""

    @pytest.fixture(scope="class")
    def random_graph(self):
        return gen.erdos_renyi(80, 4.0, seed=7, weighted=True).deduplicated()

    def test_bfs(self, random_graph):
        g = random_graph
        got = oracle.oracle_bfs(g.n_vertices, g.src, g.dst, 0)
        want = ref.reference_bfs(g.n_vertices, g.src, g.dst, 0)
        assert np.array_equal(got, want)

    def test_sssp(self, random_graph):
        g = random_graph
        got = oracle.oracle_sssp(g.n_vertices, g.src, g.dst, g.weights, 0)
        want = ref.reference_sssp(g.n_vertices, g.src, g.dst, g.weights, 0)
        assert np.allclose(got, want, equal_nan=True)

    def test_cc(self, random_graph):
        g = random_graph
        got = oracle.oracle_cc(g.n_vertices, g.src, g.dst)
        n_comp, want = ref.reference_cc(g.n_vertices, g.src, g.dst)
        assert np.unique(got).size == n_comp
        # same partition: equal labels iff equal reference labels
        for a in range(0, g.n_vertices, 7):
            same = got == got[a]
            assert np.array_equal(same, want == want[a])

    def test_bc(self, random_graph):
        g = random_graph  # deduplicated: networkx collapses parallel arcs
        got = oracle.oracle_bc(g.n_vertices, g.src, g.dst, sources=[0, 5])
        want = ref.reference_bc(g.n_vertices, g.src, g.dst, sources=[0, 5])
        assert np.allclose(got, want)

    def test_pagerank(self, random_graph):
        g = random_graph
        got = oracle.oracle_pagerank(g.n_vertices, g.src, g.dst, tol=1e-12)
        want = ref.reference_pagerank(g.n_vertices, g.src, g.dst)
        assert np.allclose(got, want, atol=1e-6)


class TestOracleIndependence:
    def test_no_framework_or_scipy_imports(self):
        """The oracle must share no code with repro.algorithms and use no
        scientific libraries — it is the trusted base of the diff."""
        import ast, inspect

        tree = ast.parse(inspect.getsource(oracle))
        banned = ("repro.algorithms", "repro.frontier", "repro.operators",
                  "scipy", "networkx")
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert not any(name.startswith(b) for b in banned), name

    def test_duplicate_edges_double_pagerank_mass(self):
        # One edge 0->1 vs two parallel edges: with a second neighbor 2,
        # parallel arcs shift mass toward 1 — the oracle must treat
        # parallel arcs as distinct, as the CSR framework does.
        single = oracle.oracle_pagerank(3, [0, 0], [1, 2])
        doubled = oracle.oracle_pagerank(3, [0, 0, 0], [1, 1, 2])
        assert doubled[1] > single[1]
        assert doubled[2] < single[2]
