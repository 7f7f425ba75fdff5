"""CSR and CSC per-vertex lookups equal their whole-array formulations.

The ``reference_*`` functions are frozen copies of the original lookups,
which widened all of ``row_ptr`` / ``col_ptr`` to int64 before indexing.
Values and dtypes must match on random graphs with zero-degree vertices,
for empty, repeated and unsorted vertex lists, and for offsets past
2^31, where a narrowing or a signed 32-bit intermediate would go wrong.
The advance's expansion of sorted vertex lists, walked on Python ints up
to ``SHORT_STREAM`` vertices and edges and vectorized past either, must
match the same reference on both sides of both cutoffs, with low-degree
vertices and hubs, and for offsets past 2^31.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.operators import advance
from repro.perfmodel.cache import SHORT_STREAM
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


# ---- the advance's walk over at most SHORT_STREAM vertices ----------- #
# A CSR advance over at most SHORT_STREAM active vertices with at most
# SHORT_STREAM edges expands them with Python ints (``advance._walk``);
# past either cutoff it expands them with ``CSRGraph.expand``.  Either
# way it must give the four arrays and the degrees the frozen reference
# gives.


@st.composite
def graphs_with_hubs_and_sorted_vertices(draw):
    """A random graph with low-degree vertices and hubs of 30-120
    out-edges, and a sorted distinct vertex list of 1 to 80 vertices, on
    both sides of SHORT_STREAM."""
    n = draw(st.integers(50, 300))
    seed = draw(st.integers(0, 2**16))
    coo = gen.erdos_renyi(n, draw(st.sampled_from([0.3, 2.0])), seed=seed, weighted=draw(st.booleans()))
    rng = np.random.default_rng(seed)
    hubs = rng.choice(n, draw(st.integers(0, 4)), replace=False)
    degrees = rng.integers(30, 121, hubs.size)
    src = np.concatenate([coo.src, np.repeat(hubs, degrees)])
    dst = np.concatenate([coo.dst, rng.integers(0, n, int(degrees.sum()))])
    weights = None
    if coo.weights is not None:
        weights = np.concatenate([coo.weights, rng.random(int(degrees.sum()))])
    merged = COOGraph(n, src, dst, weights)
    size = draw(st.sampled_from([1, 2, 7, SHORT_STREAM - 1, SHORT_STREAM, SHORT_STREAM + 1, 80]))
    size = min(size, n)
    vertices = np.sort(rng.choice(n, size, replace=False)).astype(np.int64)
    if hubs.size and draw(st.booleans()):
        vertices = np.union1d(vertices[: max(1, size - 1)], hubs[:1]).astype(np.int64)
    return merged, vertices


def _walk(graph, vertices, bits=32):
    return advance._walk(graph, vertices, advance._WordScan(bits.bit_length() - 1))


@settings(max_examples=120, deadline=None)
@given(graphs_with_hubs_and_sorted_vertices())
def test_advance_expansion_matches_reference(case):
    """An advance walks at most SHORT_STREAM vertices while their edges,
    expected at the graph's mean degree and counted, stay within
    SHORT_STREAM, and expands the others with ``CSRGraph.expand``:
    either way, the reference's arrays and degrees."""
    coo, vertices = case
    g = GraphBuilder(Queue(capacity_limit=0)).to_csr(coo)
    walked = _walk(g, vertices)
    edges = int(reference_degrees(g.row_ptr, vertices).sum())
    expected_edges = vertices.size * g.get_edge_count() / g.get_vertex_count()
    assert (walked is None) == (max(vertices.size, expected_edges, edges) > SHORT_STREAM)
    if walked is None:
        *arrays, degrees = g.expand(vertices)
        degrees = degrees.tolist()
    else:
        arrays, degrees, _ = walked
        assert all(type(d) is int for d in degrees)
    assert_same_arrays(arrays, reference_gather(g.row_ptr, g.col_idx, g.weights, vertices))
    assert degrees == reference_degrees(g.row_ptr, vertices).tolist()


class EdgeIdGraph:
    """A graph's sizes and shifted ``row_ptr``: ``gather_edges`` hands
    back the edge ids the walk built, as no test can hold the 2^31
    ``col_idx`` entries such offsets index."""

    def __init__(self, graph, row_ptr):
        self.get_vertex_count, self.get_edge_count = graph.get_vertex_count, graph.get_edge_count
        self.row_ptr = row_ptr

    def gather_edges(self, vertices, edge_ids, degrees):
        return edge_ids


def reference_edge_ids(ptr, vertices):
    starts, ends = reference_ranges(ptr, vertices)
    runs = [np.arange(s, e, dtype=np.int64) for s, e in zip(starts.tolist(), ends.tolist())]
    return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("shift", [(1 << 31) - 3, 1 << 31, (1 << 32) - 20_000])
@pytest.mark.parametrize("vertices", [[39], [0, 5, 17, 39], [1, 2, 3, 37], [1, 2, 3, 38], list(range(40))])
def test_walk_offsets_past_2_to_the_31(queue, shift, vertices):
    """The walk reads uint32 offsets past 2^31 as Python ints: edge ids
    and degrees as the reference widens them, and it hands over to the
    vectorized expansion at the same edge count (vertex 38 is a hub of
    60 edges)."""
    coo = gen.erdos_renyi(40, 3.0, seed=2)
    hub = COOGraph(40, np.full(60, 38), np.arange(60) % 40)
    coo = COOGraph(40, np.concatenate([coo.src, hub.src]), np.concatenate([coo.dst, hub.dst]))
    graph = GraphBuilder(queue).to_csr(coo)
    offsets = graph.row_ptr.copy()
    offsets += np.uint32(shift)
    v = np.array(vertices, dtype=np.int64)
    walked = _walk(EdgeIdGraph(graph, offsets), v)
    if v.size * graph.get_edge_count() > SHORT_STREAM * graph.get_vertex_count():
        assert walked is None  # forty vertices: too many at the mean degree
        return
    if int(reference_degrees(offsets, v).sum()) > SHORT_STREAM:
        assert walked is None  # the hub's edges pass the cutoff
        return
    edge_ids, degrees, _ = walked
    assert_same_arrays([edge_ids], [reference_edge_ids(offsets, v)])
    assert degrees == reference_degrees(offsets, v).tolist()
    assert int(edge_ids.min()) >= shift
