"""COO / CSR / CSC formats and the builder round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.coo import COOGraph
from repro.graph.csr import CSRGraph
from repro.sycl import Queue


class TestCOO:
    def test_basic(self):
        coo = COOGraph(3, [0, 1], [1, 2])
        assert coo.n_edges == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            COOGraph(3, [0, 1], [1])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            COOGraph(2, [0], [5])

    def test_weights_length_checked(self):
        with pytest.raises(GraphFormatError):
            COOGraph(3, [0, 1], [1, 2], weights=[1.0])

    def test_symmetrized(self):
        coo = COOGraph(3, [0], [1]).symmetrized()
        pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_symmetrized_dedupes(self):
        coo = COOGraph(2, [0, 1], [1, 0]).symmetrized()
        assert coo.n_edges == 2

    def test_deduplicated(self):
        coo = COOGraph(3, [0, 0, 0], [1, 1, 2]).deduplicated()
        assert coo.n_edges == 2

    def test_without_self_loops(self):
        coo = COOGraph(3, [0, 1, 2], [0, 2, 2]).without_self_loops()
        assert coo.n_edges == 1

    def test_unit_weights(self):
        coo = COOGraph(3, [0, 1], [1, 2]).with_unit_weights()
        assert (coo.weights == 1.0).all()


class TestCSR:
    def test_validation_row_ptr_start(self, queue):
        with pytest.raises(GraphFormatError):
            CSRGraph(queue, np.array([1, 2]), np.array([0]))

    def test_validation_monotone(self, queue):
        with pytest.raises(GraphFormatError):
            CSRGraph(queue, np.array([0, 2, 1]), np.array([0, 1]))

    def test_validation_terminal(self, queue):
        with pytest.raises(GraphFormatError):
            CSRGraph(queue, np.array([0, 1]), np.array([0, 0]))

    def test_validation_col_range(self, queue):
        with pytest.raises(GraphFormatError):
            CSRGraph(queue, np.array([0, 1]), np.array([7]))

    def test_degrees(self, diamond):
        assert list(diamond.out_degrees()) == [2, 1, 1, 1, 0]
        assert list(diamond.out_degrees(np.array([0, 4]))) == [2, 0]

    def test_neighbors_scalar(self, diamond):
        assert list(diamond.neighbors(0)) == [1, 2]
        assert list(diamond.neighbors(4)) == []

    def test_neighbor_ranges(self, diamond):
        starts, ends = diamond.neighbor_ranges(np.array([0, 3]))
        assert list(starts) == [0, 4]
        assert list(ends) == [2, 5]

    def test_gather_neighbors(self, diamond):
        src, dst, eid, w = diamond.gather_neighbors(np.array([0, 3]))
        assert list(src) == [0, 0, 3]
        assert list(dst) == [1, 2, 4]
        assert list(eid) == [0, 1, 4]
        assert (w == 1.0).all()

    def test_gather_empty(self, diamond):
        src, dst, eid, w = diamond.gather_neighbors(np.empty(0, np.int64))
        assert src.size == dst.size == eid.size == w.size == 0

    def test_device_allocation_tracked(self, queue):
        before = queue.memory.bytes_in_use
        g = from_edges(queue, [0], [1])
        assert queue.memory.bytes_in_use > before
        g.free()
        assert queue.memory.bytes_in_use == before

    def test_paper_api_names(self, diamond):
        assert diamond.get_vertex_count() == 5
        assert diamond.get_edge_count() == 5


class TestCSC:
    def test_in_degrees(self, queue, builder):
        coo = COOGraph(4, [0, 1, 2], [3, 3, 3])
        csc = builder.to_csc(coo)
        assert list(csc.in_degrees()) == [0, 0, 0, 3]

    def test_in_neighbors(self, queue, builder):
        coo = COOGraph(4, [0, 1, 2], [3, 3, 0])
        csc = builder.to_csc(coo)
        assert sorted(csc.in_neighbors(3)) == [0, 1]
        assert list(csc.in_neighbors(0)) == [2]

    def test_gather_in_neighbors(self, queue, builder):
        coo = COOGraph(4, [0, 1], [3, 3])
        csc = builder.to_csc(coo)
        src, dst, eid, w = csc.gather_in_neighbors(np.array([3]))
        assert sorted(src) == [0, 1]
        assert list(dst) == [3, 3]


class TestBuilder:
    def test_from_edges_infers_vertex_count(self, queue):
        g = from_edges(queue, [0, 5], [5, 9])
        assert g.n_vertices == 10

    def test_from_edges_undirected(self, queue):
        g = from_edges(queue, [0], [1], directed=False)
        assert g.n_edges == 2

    def test_neighbors_sorted(self, queue, builder):
        coo = COOGraph(4, [0, 0, 0], [3, 1, 2])
        g = builder.to_csr(coo)
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_weights_follow_permutation(self, queue, builder):
        coo = COOGraph(3, [0, 0], [2, 1], weights=[20.0, 10.0])
        g = builder.to_csr(coo)
        # neighbor 1 carries weight 10, neighbor 2 carries 20
        _, dst, _, w = g.gather_neighbors(np.array([0]))
        assert list(dst) == [1, 2]
        assert list(w) == [10.0, 20.0]


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), min_size=1, max_size=200),
)
def test_coo_csr_coo_roundtrip(edges):
    """COO -> CSR -> COO preserves the edge multiset."""
    queue = Queue(capacity_limit=0)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    coo = COOGraph(50, src, dst)
    csr = GraphBuilder(queue).to_csr(coo)
    back = csr.to_coo()
    orig = sorted(zip(src.tolist(), dst.tolist()))
    round_ = sorted(zip(back.src.tolist(), back.dst.tolist()))
    assert orig == round_


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=1, max_size=100),
)
def test_csr_and_csc_agree(edges):
    """out-edges in CSR == in-edges in CSC, edge for edge."""
    queue = Queue(capacity_limit=0)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    coo = COOGraph(30, src, dst)
    b = GraphBuilder(queue)
    csr, csc = b.to_csr(coo), b.to_csc(coo)
    csr_pairs = sorted(zip(csr.to_coo().src.tolist(), csr.to_coo().dst.tolist()))
    csc_pairs = sorted(zip(csc.to_coo().src.tolist(), csc.to_coo().dst.tolist()))
    assert csr_pairs == csc_pairs
