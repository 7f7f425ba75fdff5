"""An advance's scan positions from its walk equal the NumPy path's.

A CSR advance over at most ``SHORT_STREAM`` active vertices takes each
vertex's scan position (its word's index in the kernel's iteration
space) from the walk that expands them.  With summary layers (the 2LB,
a tree) the position is the rank of the vertex's word among the active
vertices' distinct words: it must be the vertex's ``np.searchsorted``
index in the offsets buffer, which holds exactly those words, sorted.
A flat bitmap's position is the word itself, a boolmap's the word
holding its byte.  A vector frontier's positions are its slots', with no
walk.  The expected positions below are the formulas the advance used
before it walked.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontier import make_frontier
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.operators import advance
from repro.perfmodel.cache import SHORT_STREAM
from repro.sycl import Queue

N = 5000
LAYOUTS = {
    "bitmap": {"layout": "bitmap"},
    "2lb": {"layout": "2lb"},
    "tree": {"layout": "tree", "n_layers": 3},
    "vector": {"layout": "vector"},
    "boolmap": {"layout": "boolmap"},
}


@lru_cache(maxsize=None)
def _graph():
    """A graph without edges: positions do not depend on them, and no
    walk hands over to the vectorized expansion."""
    return GraphBuilder(Queue(capacity_limit=0)).to_csr(COOGraph(N, [], []))


def expected_positions(frontier, active, params):
    """Each active vertex's scan position as the advance computed it
    before it walked."""
    layout = type(frontier).__name__
    if layout == "BitmapFrontier":
        words = frontier.storage(active)[0]
        return words if frontier.n_layers == 1 else np.searchsorted(frontier.compute_offsets(), words)
    if layout == "BoolmapFrontier":
        return active * 8 // params.bitmap_bits
    return np.arange(active.size) // params.bitmap_bits


@st.composite
def active_sets(draw):
    """At most SHORT_STREAM ids: clustered on a few words, or scattered
    over many."""
    k = draw(st.integers(1, SHORT_STREAM))
    if draw(st.booleans()):
        start = draw(st.integers(0, N - 200))
        return draw(st.lists(st.integers(start, start + 199), min_size=1, max_size=k))
    return draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=k))


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(ids=active_sets())
def test_walk_positions_match_searchsorted(layout, bits, ids):
    queue = Queue(capacity_limit=0)
    params = replace(queue.inspect(), bitmap_bits=bits)
    kwargs = dict(LAYOUTS[layout])
    if layout not in ("vector", "boolmap"):
        kwargs["bits"] = bits
    frontier = make_frontier(queue, N, **kwargs)
    frontier.insert(ids)
    active, _, scan = advance._scan_frontier(queue, frontier, params, "advance.frontier")
    expected = expected_positions(frontier, active, params)
    if layout == "vector":
        np.testing.assert_array_equal(scan, expected)
        return
    np.testing.assert_array_equal(scan.positions(active), expected)
    _, degrees, positions = advance._walk(_graph(), active, scan)
    assert positions == expected.tolist()
    assert all(type(p) is int for p in positions)
    assert len(degrees) == active.size
