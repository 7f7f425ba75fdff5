"""Layout conformance: all four frontier layouts are interchangeable.

Property tests drive random insert/remove/union/intersection/subtraction
sequences through every layout (bitmap family at both word widths) and
require the observable element sets to match a Python ``set`` model — the
executable form of the paper's claim that layouts change cost, never
results.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontier import (
    FrontierView,
    frontier_intersection,
    frontier_subtraction,
    frontier_union,
    layout_bits_kwargs,
    make_frontier,
)
from repro.sycl import Queue

N = 700  # spans several 32- and 64-bit words, and a partial tail word

#: (layout, bits) cells of the conformance matrix
CONFIGS = [
    ("2lb", 32), ("2lb", 64),
    ("bitmap", 32), ("bitmap", 64),
    ("tree", 32), ("tree", 64),
    ("vector", None),
    ("boolmap", None),
]


def _make(queue, layout, bits, ids=()):
    f = make_frontier(
        queue, N, FrontierView.VERTEX, layout=layout, **layout_bits_kwargs(layout, bits)
    )
    ids = np.asarray(list(ids), dtype=np.int64)
    if ids.size:
        f.insert(ids)
    return f


def _elements(f):
    return sorted(np.unique(f.active_elements()).tolist())


ids_lists = st.lists(st.integers(0, N - 1), max_size=120)


@settings(max_examples=40, deadline=None)
@given(inserts=ids_lists, removes=ids_lists)
def test_insert_remove_agree_across_layouts(inserts, removes):
    queue = Queue(capacity_limit=0)
    expected = sorted(set(inserts) - set(removes))
    for layout, bits in CONFIGS:
        f = _make(queue, layout, bits, inserts)
        f.remove(np.asarray(removes, dtype=np.int64))
        assert _elements(f) == expected, (layout, bits)
        assert f.check_invariant(), (layout, bits)
        # count() agrees with the set model for duplicate-free layouts
        if layout != "vector":
            assert f.count() == len(expected), (layout, bits)


@settings(max_examples=40, deadline=None)
@given(a_ids=ids_lists, b_ids=ids_lists)
def test_set_operations_agree_across_layouts(a_ids, b_ids):
    queue = Queue(capacity_limit=0)
    sa, sb = set(a_ids), set(b_ids)
    expected = {
        "union": sorted(sa | sb),
        "intersection": sorted(sa & sb),
        "subtraction": sorted(sa - sb),
    }
    ops = {
        "union": frontier_union,
        "intersection": frontier_intersection,
        "subtraction": frontier_subtraction,
    }
    for layout, bits in CONFIGS:
        for name, op in ops.items():
            fa = _make(queue, layout, bits, a_ids)
            fb = _make(queue, layout, bits, b_ids)
            out = _make(queue, layout, bits)
            op(fa, fb, out)
            assert _elements(out) == expected[name], (layout, bits, name)
            assert out.check_invariant(), (layout, bits, name)


@settings(max_examples=25, deadline=None)
@given(
    inserts=ids_lists,
    probes=st.lists(st.integers(0, N - 1), min_size=1, max_size=40),
)
def test_contains_agrees_across_layouts(inserts, probes):
    queue = Queue(capacity_limit=0)
    member = set(inserts)
    expected = [p in member for p in probes]
    for layout, bits in CONFIGS:
        f = _make(queue, layout, bits, inserts)
        got = f.contains(np.asarray(probes, dtype=np.int64))
        assert list(np.asarray(got, dtype=bool)) == expected, (layout, bits)


def test_boundary_ids_roundtrip():
    """First id, last id, and word-boundary ids survive every layout."""
    queue = Queue(capacity_limit=0)
    edge_ids = [0, 31, 32, 63, 64, N - 1]
    for layout, bits in CONFIGS:
        f = _make(queue, layout, bits, edge_ids)
        assert _elements(f) == sorted(set(edge_ids)), (layout, bits)
        f.remove(np.asarray(edge_ids, dtype=np.int64))
        assert f.empty(), (layout, bits)
        assert f.check_invariant(), (layout, bits)
