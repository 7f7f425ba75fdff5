"""CSR and CSC per-vertex lookups equal their whole-array formulations.

The ``reference_*`` functions are frozen copies of the original lookups,
which widened all of ``row_ptr`` / ``col_ptr`` to int64 before indexing.
Values and dtypes must match on random graphs with zero-degree vertices,
for empty, repeated and unsorted vertex lists, and for offsets past
2^31, where a narrowing or a signed 32-bit intermediate would go wrong.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.sycl import Queue


def reference_degrees(ptr, vertices=None):
    rp = ptr.astype(np.int64)
    if vertices is None:
        return rp[1:] - rp[:-1]
    v = np.asarray(vertices, dtype=np.int64)
    return rp[v + 1] - rp[v]


def reference_ranges(ptr, vertices):
    v = np.asarray(vertices, dtype=np.int64)
    rp = ptr.astype(np.int64)
    return rp[v], rp[v + 1]


def reference_gather(ptr, idx, weights, vertices):
    """(queried, other endpoint, edge id, weight) per traversed edge."""
    v = np.asarray(vertices, dtype=np.int64)
    starts, ends = reference_ranges(ptr, v)
    degs = ends - starts
    total = int(degs.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, np.empty(0, dtype=np.float32)
    queried = np.repeat(v, degs)
    offsets = np.repeat(starts, degs)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(degs)[:-1])), degs
    )
    edge_ids = offsets + within
    other = idx[edge_ids].astype(np.int64)
    w = weights[edge_ids] if weights is not None else np.ones(total, dtype=np.float32)
    return queried, other, edge_ids, w


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@st.composite
def graphs_and_vertices(draw):
    """A random graph, many of whose vertices have no out- or in-edges,
    and a vertex list that may be empty, repeat vertices or be unsorted."""
    n = draw(st.integers(1, 120))
    density = draw(st.sampled_from([0.0, 0.3, 2.0, 6.0]))
    seed = draw(st.integers(0, 2**16))
    coo = gen.erdos_renyi(n, density, seed=seed, weighted=draw(st.booleans()))
    vertices = draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    if draw(st.booleans()):
        vertices = sorted(vertices)
    return coo, np.array(vertices, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(graphs_and_vertices())
def test_csr_lookups_match_reference(case):
    coo, vertices = case
    g = GraphBuilder(Queue(capacity_limit=0)).to_csr(coo)
    assert_same_arrays([g.out_degrees(vertices)], [reference_degrees(g.row_ptr, vertices)])
    assert_same_arrays([g.out_degrees()], [reference_degrees(g.row_ptr)])
    assert_same_arrays(g.neighbor_ranges(vertices), reference_ranges(g.row_ptr, vertices))
    assert_same_arrays(
        g.gather_neighbors(vertices), reference_gather(g.row_ptr, g.col_idx, g.weights, vertices)
    )


@settings(max_examples=80, deadline=None)
@given(graphs_and_vertices())
def test_csc_lookups_match_reference(case):
    coo, vertices = case
    g = GraphBuilder(Queue(capacity_limit=0)).to_csc(coo)
    assert_same_arrays([g.in_degrees(vertices)], [reference_degrees(g.col_ptr, vertices)])
    assert_same_arrays([g.in_degrees()], [reference_degrees(g.col_ptr)])
    assert_same_arrays(g.in_neighbor_ranges(vertices), reference_ranges(g.col_ptr, vertices))
    src, dst, eid, w = g.gather_in_neighbors(vertices)
    dst_ref, src_ref, eid_ref, w_ref = reference_gather(g.col_ptr, g.row_idx, g.weights, vertices)
    assert_same_arrays([src, dst, eid, w], [src_ref, dst_ref, eid_ref, w_ref])


@pytest.mark.parametrize("shift", [(1 << 31) - 3, 1 << 31, (1 << 32) - 200])
def test_offsets_past_2_to_the_31(queue, shift):
    """Offsets of a graph with more than 2^31 edges: the uint32 offsets
    are widened, not read as signed, and differences do not wrap."""
    coo = gen.erdos_renyi(40, 3.0, seed=2)
    csr = GraphBuilder(queue).to_csr(coo)
    csc = GraphBuilder(queue).to_csc(coo)
    vertices = np.array([39, 0, 5, 5, 17, 0], dtype=np.int64)
    for g, ptr in ((csr, "row_ptr"), (csc, "col_ptr")):
        offsets = getattr(g, ptr)
        offsets += np.uint32(shift)  # as if the graph had `shift` more edges in front
        degrees = g.out_degrees if ptr == "row_ptr" else g.in_degrees
        ranges = g.neighbor_ranges if ptr == "row_ptr" else g.in_neighbor_ranges
        assert_same_arrays([degrees(vertices)], [reference_degrees(offsets, vertices)])
        assert_same_arrays([degrees()], [reference_degrees(offsets)])
        starts, ends = ranges(vertices)
        assert_same_arrays([starts, ends], reference_ranges(offsets, vertices))
        assert int(starts.min()) >= shift
