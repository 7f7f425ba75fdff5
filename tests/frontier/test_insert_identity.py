"""Bitmap-family inserts leave the words their first formulation left.

``reference_layers`` ORs every inserted id into a copy of each layer the
way the original inserts did: the raw ids into layer 0, then each
layer's word indices into the next, duplicates and order as given.
An insert must produce the same word arrays from unsorted ids with
duplicates, into an empty or a non-empty frontier, at 32- and 64-bit
words; its scan cache must stay coherent; and an out-of-range id must
raise the same error as before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrontierError
from repro.frontier import make_frontier
from repro.sycl import Queue

#: layout name -> make_frontier keyword arguments
LAYOUTS = {
    "bitmap": {"layout": "bitmap"},
    "2lb": {"layout": "2lb"},
    "tree1": {"layout": "tree", "n_layers": 1},
    "tree2": {"layout": "tree", "n_layers": 2},
    "tree3": {"layout": "tree", "n_layers": 3},
}


def layers_of(frontier):
    if hasattr(frontier, "layers"):
        return list(frontier.layers)
    if hasattr(frontier, "words_l2"):
        return [frontier.words, frontier.words_l2]
    return [frontier.words]


def reference_layers(before, ids, bits):
    """Each layer after ORing ``ids`` in, one summary layer after another."""
    after = []
    ids = np.asarray(ids, dtype=np.int64)
    for layer in before:
        layer = layer.copy()
        masks = layer.dtype.type(1) << (ids % bits).astype(layer.dtype)
        np.bitwise_or.at(layer, ids // bits, masks)
        after.append(layer)
        ids = np.unique(ids // bits)
    return after


def _unsorted_with_duplicates(draw, n):
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=200))
    ids += draw(st.lists(st.sampled_from(ids), max_size=50))  # repeats
    return np.random.default_rng(len(ids)).permutation(np.array(ids, dtype=np.int64))


@st.composite
def inserts(draw):
    """A frontier size, how the frontier starts (fresh, cleared, or with
    a scan that proved it empty: the last two prime the scan cache on
    insert), an optional first insert and a second one."""
    n = draw(st.sampled_from([1, 31, 64, 1000, 5000, 70_000]))
    start = draw(st.sampled_from(["fresh", "cleared", "counted"]))
    first = _unsorted_with_duplicates(draw, n) if draw(st.booleans()) else None
    return n, start, first, _unsorted_with_duplicates(draw, n)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(case=inserts())
def test_insert_matches_reference(layout, bits, case):
    n, start, first, second = case
    frontier = make_frontier(Queue(capacity_limit=0), n, bits=bits, **LAYOUTS[layout])
    if start == "cleared":
        frontier.clear()
    elif start == "counted":
        assert frontier.count() == 0
    inserted = []
    for ids in (first, second):
        if ids is None:
            continue
        expected = reference_layers(layers_of(frontier), ids, bits)
        frontier.insert(ids)
        inserted.append(ids)
        for got, want in zip(layers_of(frontier), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert frontier.scan_cache_coherent() is None
        np.testing.assert_array_equal(frontier.active_elements(), np.unique(np.concatenate(inserted)))
        assert frontier.scan_cache_coherent() is None
        assert frontier.check_invariant()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("bad", [[5, 100, 3, 100], [-1, 7, 2], [-4, 130, 99]])
def test_out_of_range_insert_message(queue, layout, bad):
    frontier = make_frontier(queue, 100, **LAYOUTS[layout])
    frontier.insert([1, 2])
    before = [layer.copy() for layer in layers_of(frontier)]
    lo, hi = min(bad), max(bad)
    with pytest.raises(FrontierError) as raised:
        frontier.insert(np.array(bad))
    assert str(raised.value) == f"element id out of range [0, 100): [{lo}, {hi}]"
    for got, want in zip(layers_of(frontier), before):
        np.testing.assert_array_equal(got, want)
