"""Bitmap-family inserts leave the words their first formulation left.

``reference_layers`` ORs every inserted id into a copy of each layer the
way the original inserts did: the raw ids into layer 0, then each
layer's word indices into the next, duplicates and order as given.
An insert must produce the same word arrays from unsorted ids with
duplicates, into an empty or a non-empty frontier, at 32- and 64-bit
words; its scan cache must stay coherent; and an out-of-range id must
raise the same error as before.  All of it holds on each of the three
insert paths: at most ``SHORT_STREAM`` ids are inserted with Python ints;
more ids are marked and packed into words when ``count_distinct``'s mark
rule lets them mark the whole frontier, and sorted otherwise.  The
vector and boolmap layouts raise the same error as the bitmaps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrontierError
from repro.frontier import bitmap, make_frontier
from repro.frontier.vector import VectorFrontier
from repro.perfmodel.cache import MARK_SPAN_BASE, MARK_SPAN_PER_ACCESS
from repro.sycl import Queue

#: layout name -> make_frontier keyword arguments
LAYOUTS = {
    "bitmap": {"layout": "bitmap"},
    "2lb": {"layout": "2lb"},
    "tree1": {"layout": "tree", "n_layers": 1},
    "tree2": {"layout": "tree", "n_layers": 2},
    "tree3": {"layout": "tree", "n_layers": 3},
}


#: every layout: the bitmap family and the two without words
ALL_LAYOUTS = {**LAYOUTS, "vector": {"layout": "vector"}, "boolmap": {"layout": "boolmap"}}


def layers_of(frontier):
    return list(frontier.layers)


def storage_of(frontier):
    """Copies of the arrays that hold a frontier's elements."""
    if isinstance(frontier, bitmap.BitmapFrontier):
        return [layer.copy() for layer in frontier.layers]
    if isinstance(frontier, VectorFrontier):
        return [frontier.raw_elements()]
    return [frontier.flags.copy()]


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


@pytest.mark.parametrize("layout", sorted(ALL_LAYOUTS))
@pytest.mark.parametrize("bad", [[5, 100, 3, 100], [-1, 7, 2], [-4, 130, 99]])
def test_out_of_range_insert_message(queue, layout, bad):
    frontier = make_frontier(queue, 100, **ALL_LAYOUTS[layout])
    frontier.insert([1, 2])
    before = storage_of(frontier)
    lo, hi = min(bad), max(bad)
    with pytest.raises(FrontierError) as raised:
        frontier.insert(np.array(bad))
    assert str(raised.value) == f"element id out of range [0, 100): [{lo}, {hi}]"
    for got, want in zip(storage_of(frontier), before):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(frontier.active_elements(), [1, 2])


#: one layer, two (the 2LB) and three (a tree), at both word widths
DEPTHS = ["tree1", "tree2", "tree3"]


def _ids_around_cutoff(size, n, seed):
    """``size`` ids below ``n``, unsorted, a quarter of them repeats (an
    insert of at most SHORT_STREAM ids takes the Python-int path, a
    longer one NumPy)."""
    rng = np.random.default_rng(seed)
    distinct = rng.choice(n, size=size - size // 4, replace=False)
    ids = np.concatenate([distinct, rng.choice(distinct, size // 4)])
    return rng.permutation(ids).astype(np.int64)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("layout", DEPTHS)
@pytest.mark.parametrize("size", [1, 47, 48, 49, 200])
@pytest.mark.parametrize("start", ["cleared", "non-empty"])
def test_insert_on_both_sides_of_the_cutoff(layout, bits, size, start):
    """47, 48 and 49 ids, unsorted with repeats, into a frontier known to
    be empty (the insert primes its scans) or holding other ids.  The
    words must equal the reference's, and a primed scan must equal a
    fresh one (a nonzero_words primed from the wrong layer fails)."""
    ids = _ids_around_cutoff(size, 5000, seed=size * bits)
    assert ids.size == size
    check_insert(layout, bits, 5000, ids, start)


def check_insert(layout, bits, n, ids, start):
    """Insert ``ids`` into an ``n``-element frontier that was cleared or
    holds three other ids, and compare its words and scans with the
    reference."""
    frontier = make_frontier(Queue(capacity_limit=0), n, bits=bits, **LAYOUTS[layout])
    frontier.clear()
    earlier = np.array([3, n - 1000, n - 999], dtype=np.int64)
    if start == "non-empty":
        frontier.insert(earlier)
    expected = reference_layers(layers_of(frontier), ids, bits)
    frontier.insert(ids)
    for got, want in zip(layers_of(frontier), expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if start == "cleared":
        primed = dict(frontier._scan_cache)
        assert set(primed) == {"active", "nonzero_words"}
        for key, value in primed.items():
            fresh = frontier._scan_compute(key)
            assert value.dtype == fresh.dtype == np.int64, key
            np.testing.assert_array_equal(value, fresh, err_msg=key)
    assert frontier.scan_cache_coherent() is None
    inserted = np.unique(ids) if start == "cleared" else np.unique(np.concatenate([earlier, ids]))
    np.testing.assert_array_equal(frontier.active_elements(), inserted)
    assert frontier.check_invariant()


@pytest.mark.parametrize("layout", DEPTHS)
@pytest.mark.parametrize("size", [47, 48, 49, 60])
@pytest.mark.parametrize("bad", [-3, 100])
def test_out_of_range_insert_message_on_both_sides_of_the_cutoff(queue, layout, size, bad):
    """A negative or past-the-end id among ``size`` ids raises the same
    error on the Python-int path as on the NumPy one, and changes no
    word."""
    check_out_of_range(queue, layout, 100, size, bad)


def check_out_of_range(queue, layout, n, size, bad):
    frontier = make_frontier(queue, n, **LAYOUTS[layout])
    frontier.insert([1, 2])
    before = [layer.copy() for layer in layers_of(frontier)]
    ids = np.random.default_rng(size).permutation(np.append(np.arange(size - 1) % 97, bad))
    lo, hi = ids.min(), ids.max()
    with pytest.raises(FrontierError) as raised:
        frontier.insert(ids)
    assert str(raised.value) == f"element id out of range [0, {n}): [{lo}, {hi}]"
    for got, want in zip(layers_of(frontier), before):
        np.testing.assert_array_equal(got, want)


#: ``(ids, n)``: an insert of ``k`` ids into a frontier at the largest size
#: the mark rule lets them mark (they are packed into words), and into one
#: element more (they are sorted)
MARK_RULE_CASES = [
    (k, MARK_SPAN_PER_ACCESS * k + MARK_SPAN_BASE + past) for k in (49, 200) for past in (0, 1)
]


@pytest.fixture
def sorted_inserts(monkeypatch):
    """Counts the inserts that sort their ids."""
    calls, distinct_ids = [], bitmap.distinct_ids

    def counting(ids, n):
        calls.append(n)
        return distinct_ids(ids, n)

    monkeypatch.setattr(bitmap, "distinct_ids", counting)
    return calls


def _packs(size, n):
    return n <= MARK_SPAN_PER_ACCESS * size + MARK_SPAN_BASE


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("layout", DEPTHS)
@pytest.mark.parametrize("size, n", MARK_RULE_CASES)
@pytest.mark.parametrize("start", ["cleared", "non-empty"])
def test_insert_on_both_sides_of_the_mark_rule(sorted_inserts, layout, bits, size, n, start):
    """More than ``SHORT_STREAM`` ids, unsorted with repeats and with the
    first and the last element among them, into a frontier just small
    enough for the mark rule (packed) and one element larger (sorted)."""
    ids = _ids_around_cutoff(size, n, seed=n * bits)
    ids[:2] = 0, n - 1
    check_insert(layout, bits, n, ids, start)
    assert sorted_inserts == ([] if _packs(size, n) else [n])


@pytest.mark.parametrize("layout", DEPTHS)
@pytest.mark.parametrize("size, n", MARK_RULE_CASES)
@pytest.mark.parametrize("past_end", [False, True])
def test_out_of_range_insert_message_on_both_sides_of_the_mark_rule(queue, layout, size, n, past_end):
    """A negative or past-the-end id raises the same error whether the
    insert would have packed or sorted its ids, and changes no word."""
    check_out_of_range(queue, layout, n, size, n if past_end else -3)
