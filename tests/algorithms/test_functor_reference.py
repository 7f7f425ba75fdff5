"""Each advance functor of CC, BC, PageRank and SSSP against its first
formulation.

The functors gather each per-vertex array once per edge, and compress
the edges by their mask before they gather.  The ``reference_*``
factories below are frozen copies of the formulas they replaced, which
gathered one array twice, gathered before they compressed, multiplied
two edge-wide gathers, or widened the weights in a pass of their own.
On drawn edge arrays with repeated destinations, unreached vertices
(``-1`` depths, ``inf`` distances), zero path counts and float32
weights, every functor must return the reference's mask and leave every
state array as the reference leaves it, bit for bit.  The edge arrays
are read-only, as the all-vertex sweep hands them out.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bc import _backward_functor, _forward_functor
from repro.algorithms.cc import _propagate_functor
from repro.algorithms.pagerank import _scatter_functor
from repro.algorithms.sssp import _relax_functor


def reference_propagate(labels):
    def functor(src, dst, eid, w):
        improved = labels[src] < labels[dst]
        np.minimum.at(labels, dst[improved], labels[src][improved])
        return improved

    return functor


def reference_forward(dist, sigma, depth):
    def fwd(src, dst, eid, w):
        unseen = dist[dst] == -1
        on_level = dist[dst] == depth
        tree = unseen | on_level
        np.add.at(sigma, dst[tree], sigma[src][tree])
        dist[dst[tree]] = depth
        return tree

    return fwd


def reference_backward(dist, sigma, delta):
    def back(src, dst, eid, w):
        tree = dist[dst] == dist[src] + 1
        contrib = sigma[src][tree] / np.maximum(sigma[dst][tree], 1e-300) * (1.0 + delta[dst][tree])
        np.add.at(delta, src[tree], contrib)
        return np.zeros(src.size, dtype=bool)

    return back


def reference_scatter(ranks, inv_deg, nxt):
    def scatter(src, dst, eid, w):
        np.add.at(nxt, dst, ranks[src] * inv_deg[src])
        return np.zeros(src.size, dtype=bool)

    return scatter


def reference_relax(dist, stats=None):
    def functor(src, dst, eid, w):
        candidate = dist[src] + w.astype(np.float64)
        improved = candidate < dist[dst]
        if stats is not None:
            stats["relaxations"] += int(np.count_nonzero(improved))
        np.minimum.at(dist, dst[improved], candidate[improved])
        return improved

    return functor


@st.composite
def edge_arrays(draw):
    """``(n, (src, dst, eid, w))``: edges among a few vertices, so
    destinations repeat, with float32 weights, all read-only."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 80))
    vertex = st.integers(0, n - 1)
    src = np.array(draw(st.lists(vertex, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(vertex, min_size=m, max_size=m)), dtype=np.int64)
    weight = st.floats(0, 64, width=32, allow_subnormal=False)
    w = np.array(draw(st.lists(weight, min_size=m, max_size=m)), dtype=np.float32)
    edges = src, dst, np.arange(m, dtype=np.int64), w
    for array in edges:
        array.flags.writeable = False
    return n, edges


def floats(n, draw, high=1e6, special=()):
    """``n`` float64 values, drawn from ``[0, high]``, exact zeros and the
    given specials."""
    pool = [st.floats(0.0, high, allow_nan=False), st.just(0.0), *map(st.just, special)]
    return np.array(draw(st.lists(st.one_of(pool), min_size=n, max_size=n)), dtype=np.float64)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def run_both(new, reference, state, edges):
    """Run the functor built by ``new`` and the one built by
    ``reference`` on copies of ``state``; their masks and every state
    array must match bit for bit."""
    ours = [array.copy() for array in state]
    theirs = [array.copy() for array in state]
    # a zero path count divides by 1e-300: large contributions overflow
    # to inf, the same in both
    with np.errstate(over="ignore"):
        mask = new(*ours)(*edges)
        expected = reference(*theirs)(*edges)
    assert_same_bits(np.asarray(mask), np.asarray(expected))
    for got, want in zip(ours, theirs):
        assert_same_bits(got, want)


@settings(max_examples=80, deadline=None)
@given(case=edge_arrays(), data=st.data())
def test_cc_propagate(case, data):
    n, edges = case
    labels = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)), dtype=np.int64)
    run_both(_propagate_functor, reference_propagate, [labels], edges)


@settings(max_examples=80, deadline=None)
@given(case=edge_arrays(), data=st.data())
def test_bc_forward(case, data):
    n, edges = case
    depth = data.draw(st.integers(1, 4))
    dist = np.array(data.draw(st.lists(st.integers(-1, depth + 1), min_size=n, max_size=n)), dtype=np.int64)
    run_both(
        lambda dist, sigma: _forward_functor(dist, sigma, depth),
        lambda dist, sigma: reference_forward(dist, sigma, depth),
        [dist, floats(n, data.draw)],
        edges,
    )


@settings(max_examples=80, deadline=None)
@given(case=edge_arrays(), data=st.data())
def test_bc_backward(case, data):
    n, edges = case
    dist = np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int64)
    run_both(_backward_functor, reference_backward, [dist, floats(n, data.draw), floats(n, data.draw)], edges)


@settings(max_examples=80, deadline=None)
@given(case=edge_arrays(), data=st.data())
def test_pagerank_scatter(case, data):
    n, edges = case
    ranks = floats(n, data.draw, high=1.0)
    inv_deg = floats(n, data.draw, high=1.0)
    run_both(_scatter_functor, reference_scatter, [ranks, inv_deg, floats(n, data.draw, high=1.0)], edges)


@settings(max_examples=80, deadline=None)
@given(case=edge_arrays(), data=st.data(), counted=st.booleans())
def test_sssp_relax(case, data, counted):
    n, edges = case
    dist = floats(n, data.draw, high=1e3, special=(np.inf,))
    ours, theirs = ({"relaxations": 0} if counted else None for _ in range(2))
    run_both(lambda d: _relax_functor(d, ours), lambda d: reference_relax(d, theirs), [dist], edges)
    assert ours == theirs
