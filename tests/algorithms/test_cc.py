"""Connected components: label propagation + shortcutting vs union-find."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import cc
from repro.algorithms.cc import count_components_reference
from tests.validation import reference_cc
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges
from repro.sycl import Queue


def _same_partition(labels_a, labels_b) -> bool:
    """Two labelings describe the same partition (bijective mapping)."""
    fwd, bwd = {}, {}
    for a, b in zip(labels_a, labels_b):
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return False
    return True


class TestCorrectness:
    def test_matches_scipy(self, undirected_random):
        g, coo = undirected_random
        result = cc(g)
        n_ref, labels_ref = reference_cc(coo.n_vertices, coo.src, coo.dst)
        assert result.n_components == n_ref
        assert _same_partition(result.labels, labels_ref)

    def test_two_components(self, queue):
        g = from_edges(queue, [0, 1, 3], [1, 0, 4], n_vertices=5, directed=False)
        result = cc(g)
        assert result.n_components == 3  # {0,1}, {3,4}, {2}
        assert result.same_component(0, 1)
        assert not result.same_component(0, 3)

    def test_fully_connected(self, queue, builder):
        g = builder.to_csr(gen.complete_graph(20))
        assert cc(g).n_components == 1

    def test_no_edges(self, queue):
        g = from_edges(queue, [], [], n_vertices=10)
        assert cc(g).n_components == 10

    def test_road_network(self, queue, builder):
        coo = gen.road_network(15, 15, seed=7)
        g = builder.to_csr(coo)
        n_ref, _ = reference_cc(coo.n_vertices, coo.src, coo.dst)
        assert cc(g).n_components == n_ref


class TestShortcutting:
    def test_shortcutting_off_still_correct(self, undirected_random):
        g, coo = undirected_random
        result = cc(g, shortcutting=False)
        n_ref, _ = reference_cc(coo.n_vertices, coo.src, coo.dst)
        assert result.n_components == n_ref

    def test_shortcutting_reduces_iterations_on_paths(self, queue):
        """Stergiou's optimization collapses long chains (paper §3.4)."""
        coo = gen.path_graph(200).symmetrized()
        q1 = Queue(capacity_limit=0, enable_profiling=False)
        q2 = Queue(capacity_limit=0, enable_profiling=False)
        g1 = GraphBuilder(q1).to_csr(coo)
        g2 = GraphBuilder(q2).to_csr(coo)
        with_sc = cc(g1, shortcutting=True)
        without = cc(g2, shortcutting=False)
        assert with_sc.iterations < without.iterations / 4
        assert with_sc.n_components == without.n_components == 1


class TestShortcutRegression:
    # Found by the property test below: _shortcut() lowered vertex 5's
    # label mid-loop without re-inserting it into the frontier, so edge
    # (5, 4) was never re-examined and the two halves stayed split.
    EDGES = [(0, 3), (1, 6), (2, 3), (2, 5), (4, 5), (4, 6)]

    @pytest.mark.parametrize("layout", ["2lb", "bitmap", "vector", "boolmap"])
    def test_shortcut_reinserts_changed_labels(self, layout):
        queue = Queue(capacity_limit=0, enable_profiling=False)
        src = [e[0] for e in self.EDGES]
        dst = [e[1] for e in self.EDGES]
        g = from_edges(queue, src, dst, n_vertices=7, directed=False)
        result = cc(g, layout=layout, shortcutting=True)
        assert result.n_components == 1
        assert np.all(result.labels == 0)


class TestUnionFindHelper:
    def test_reference_counter(self):
        n = count_components_reference(5, np.array([0, 3]), np.array([1, 4]))
        assert n == 3


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
)
def test_cc_matches_reference_property(edges):
    queue = Queue(capacity_limit=0, enable_profiling=False)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = from_edges(queue, src, dst, n_vertices=30, directed=False)
    result = cc(g)
    n_ref, labels_ref = reference_cc(30, src, dst)
    assert result.n_components == n_ref
    assert _same_partition(result.labels, labels_ref)
