"""Layout-agnostic frontier behaviour, run over all four layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrontierError
from repro.frontier import BITMAP_LAYOUTS, FrontierView, make_frontier
from repro.frontier.vector import VectorFrontier
from repro.sycl import Queue

LAYOUTS = ["bitmap", "2lb", "vector", "boolmap"]


@pytest.fixture(params=LAYOUTS)
def frontier(request, queue):
    return make_frontier(queue, 1000, layout=request.param)


class TestBasics:
    def test_starts_empty(self, frontier):
        assert frontier.empty()
        assert frontier.count() == 0
        assert frontier.active_elements().size == 0

    def test_insert_scalar(self, frontier):
        frontier.insert(42)
        assert frontier.count() == 1
        assert list(frontier.active_elements()) == [42]

    def test_insert_array(self, frontier):
        frontier.insert([5, 900, 0])
        assert sorted(frontier.active_elements()) == [0, 5, 900]

    def test_duplicates_counted_once(self, frontier):
        frontier.insert([7, 7, 7, 8])
        assert frontier.count() == 2

    def test_remove(self, frontier):
        frontier.insert([1, 2, 3])
        frontier.remove([2])
        assert sorted(frontier.active_elements()) == [1, 3]

    def test_remove_absent_is_noop(self, frontier):
        frontier.insert([1])
        frontier.remove([500])
        assert frontier.count() == 1

    def test_clear(self, frontier):
        frontier.insert(np.arange(100))
        frontier.clear()
        assert frontier.empty()

    def test_contains(self, frontier):
        frontier.insert([10, 20])
        mask = frontier.contains([10, 11, 20])
        assert list(mask) == [True, False, True]

    def test_boundary_elements(self, frontier):
        frontier.insert([0, 999])
        assert frontier.contains([0, 999]).all()

    def test_nbytes_positive(self, frontier):
        assert frontier.nbytes > 0


class TestSwap:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_swap_exchanges_contents(self, queue, layout):
        from repro.frontier import swap

        a = make_frontier(queue, 100, layout=layout)
        b = make_frontier(queue, 100, layout=layout)
        a.insert([1, 2])
        b.insert([50])
        swap(a, b)
        assert sorted(a.active_elements()) == [50]
        assert sorted(b.active_elements()) == [1, 2]

    def test_swap_mismatched_layouts_rejected(self, queue):
        from repro.frontier import swap

        a = make_frontier(queue, 100, layout="bitmap")
        b = make_frontier(queue, 100, layout="vector")
        with pytest.raises(FrontierError):
            swap(a, b)

    def test_swap_mismatched_sizes_rejected(self, queue):
        from repro.frontier import swap

        a = make_frontier(queue, 100, layout="2lb")
        b = make_frontier(queue, 200, layout="2lb")
        with pytest.raises(FrontierError):
            swap(a, b)

    def test_swap_mismatched_bitmap_depths_rejected(self, queue):
        from repro.frontier import swap

        a = make_frontier(queue, 100, layout="bitmap")
        b = make_frontier(queue, 100, layout="2lb")
        with pytest.raises(FrontierError, match="layer"):
            swap(a, b)

    @pytest.mark.parametrize("layout", BITMAP_LAYOUTS)
    def test_swap_mismatched_word_widths_rejected(self, queue, layout):
        """A 32-bit payload read as 64-bit words reports the wrong members:
        the swap must refuse, and leave both frontiers as they were."""
        from repro.frontier import swap

        a = make_frontier(queue, 100, layout=layout, bits=32)
        b = make_frontier(queue, 100, layout=layout, bits=64)
        a.insert([70, 99])
        b.insert([5])
        with pytest.raises(FrontierError, match="bit"):
            swap(a, b)
        assert list(a.active_elements()) == [70, 99] and a.check_invariant()
        assert list(b.active_elements()) == [5] and b.check_invariant()
        a.insert([1])  # and both stay usable
        b.insert([2])


#: every layout make_frontier builds
ALL_LAYOUTS = ["bitmap", "2lb", "vector", "boolmap", "tree"]


class TestValidation:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_out_of_range_insert_rejected(self, queue, layout):
        f = make_frontier(queue, 100, layout=layout)
        with pytest.raises(FrontierError):
            f.insert([100])

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    @pytest.mark.parametrize("op", ["insert", "remove", "contains"])
    @pytest.mark.parametrize("bad", [[-1, 3], [10], [3, 12, -2]])
    def test_out_of_range_ids_rejected_with_their_bounds(self, queue, layout, op, bad):
        """Every layout's insert, remove and contains name the range and
        the offending ids' bounds, and change nothing: a negative id is
        no alias of the last element, and a bad insert into an empty
        frontier leaves it empty with a coherent scan cache."""
        f = make_frontier(queue, 10, layout=layout)
        f.clear()
        if op != "insert":
            f.insert([3, 9])
        before = f.active_elements().copy()
        with pytest.raises(FrontierError) as raised:
            getattr(f, op)(bad)
        assert str(raised.value) == f"element id out of range [0, 10): [{min(bad)}, {max(bad)}]"
        np.testing.assert_array_equal(f.active_elements(), before)
        assert f.scan_cache_coherent() is None
        assert f.check_invariant()

    def test_unknown_layout(self, queue):
        with pytest.raises(FrontierError):
            make_frontier(queue, 10, layout="hashset")

    def test_negative_size_rejected(self, queue):
        with pytest.raises(FrontierError):
            make_frontier(queue, -1)


class TestMemoryFootprints:
    def test_bitmap_is_8x_smaller_than_boolmap(self, queue):
        """Paper §4.1: Grus's boolmap uses 8x the memory of a bitmap."""
        bitmap = make_frontier(queue, 64_000, layout="bitmap")
        boolmap = make_frontier(queue, 64_000, layout="boolmap")
        assert boolmap.nbytes == 8 * bitmap.nbytes

    def test_vector_grows_with_content(self, queue):
        f = make_frontier(queue, 100_000, layout="vector", initial_capacity=64)
        before = f.nbytes
        f.insert(np.arange(10_000))
        assert f.nbytes > before
        assert f.reallocations > 0


class TestVectorSpecifics:
    def test_duplicates_retained_until_dedup(self, queue):
        f = VectorFrontier(queue, 100, FrontierView.VERTEX)
        f.insert([1, 1, 2, 1])
        assert f.size_with_duplicates == 4
        assert f.count() == 2
        removed = f.deduplicate()
        assert removed == 2
        assert f.size_with_duplicates == 2

    def test_dedup_preserves_encounter_order(self, queue):
        f = VectorFrontier(queue, 100, FrontierView.VERTEX)
        f.insert([9, 3, 9, 7, 3])
        f.deduplicate()
        assert list(f.raw_elements()) == [9, 3, 7]

    def test_view_attribute(self, queue):
        f = make_frontier(queue, 10, FrontierView.EDGE, layout="vector")
        assert f.view is FrontierView.EDGE


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "remove"]), st.lists(st.integers(0, 499), max_size=30)),
        max_size=15,
    ),
    layout=st.sampled_from(LAYOUTS),
)
def test_frontier_matches_python_set(ops, layout):
    """Any insert/remove sequence behaves like a plain set of ints."""
    queue = Queue(capacity_limit=0)
    f = make_frontier(queue, 500, layout=layout)
    reference = set()
    for op, ids in ops:
        if op == "insert":
            f.insert(ids)
            reference.update(ids)
        else:
            f.remove(ids)
            reference.difference_update(ids)
    assert sorted(f.active_elements()) == sorted(reference)
    assert f.count() == len(reference)
