"""Two-Layer Bitmap specifics (a two-layer ``BitmapFrontier``): the
layer-2 invariant and the offsets pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontier.bitmap import BitmapFrontier
from repro.sycl import Queue


@pytest.fixture
def f2lb(queue):
    return BitmapFrontier(queue, 10_000, n_layers=2)


class TestSizes:
    def test_layer_sizes_match_paper(self, queue):
        """Layer 1: ceil(|V|/b) words; layer 2: ceil(|V|/b^2) (paper §4.3)."""
        f = BitmapFrontier(queue, 10_000, bits=32, n_layers=2)
        assert f.n_words == -(-10_000 // 32)
        assert f.layers[1].size == -(-f.n_words // 32)

    def test_64bit_layers(self, queue):
        f = BitmapFrontier(queue, 100_000, bits=64, n_layers=2)
        assert f.n_words == -(-100_000 // 64)
        assert f.layers[1].size == -(-f.n_words // 64)


class TestLayer2Maintenance:
    def test_insert_sets_layer2(self, f2lb):
        f2lb.insert([0])
        assert f2lb.check_invariant()
        assert f2lb.nonzero_words().size == 1

    def test_remove_clears_layer2_when_word_empties(self, f2lb):
        f2lb.insert([0, 1])
        f2lb.remove([0])
        assert f2lb.nonzero_words().size == 1  # word still has bit 1
        f2lb.remove([1])
        assert f2lb.nonzero_words().size == 0
        assert f2lb.check_invariant()

    def test_clear_resets_both_layers(self, f2lb):
        f2lb.insert(np.arange(0, 10_000, 13))
        f2lb.clear()
        assert f2lb.check_invariant()
        assert (np.asarray(f2lb.layers[1]) == 0).all()


class TestRemoveThenScan:
    def test_emptied_word_skipped_by_scan(self, f2lb):
        """Regression: ``remove()`` clears layer-2 eagerly when a word
        empties, so a subsequent scan must skip that word entirely (an old
        comment wrongly claimed layer-2 bits were left 'conservatively 1')."""
        bits = f2lb.bits
        f2lb.insert([0, 1, 2, 40 * bits])
        f2lb.remove([0, 1, 2])  # word 0 is now all-zero
        assert list(f2lb.nonzero_words()) == [40]
        assert list(f2lb.compute_offsets()) == [40]
        # the layer-2 bit for word 0 must be cleared, not conservatively set
        assert not (int(np.asarray(f2lb.layers[1])[0]) & 1)
        assert sorted(f2lb.active_elements()) == [40 * bits]
        assert f2lb.check_invariant()

    def test_remove_everything_then_scan(self, f2lb):
        ids = np.arange(0, 2000, 7)
        f2lb.insert(ids)
        f2lb.remove(ids)
        assert f2lb.empty()
        assert f2lb.nonzero_words().size == 0
        assert f2lb.compute_offsets().size == 0
        assert (np.asarray(f2lb.layers[1]) == 0).all()


class TestOffsets:
    def test_compute_offsets_lists_nonzero_words(self, f2lb):
        f2lb.insert([0, 40, 5000])
        offsets = f2lb.compute_offsets()
        bits = f2lb.bits
        expected = sorted({0 // bits, 40 // bits, 5000 // bits})
        assert list(offsets) == expected
        assert f2lb.n_offsets == len(expected)

    def test_offsets_skip_zero_words(self, f2lb):
        """The whole point of 2LB: never visit all-zero words (Fig 5a)."""
        f2lb.insert([9999])
        assert f2lb.compute_offsets().size == 1

    def test_offsets_empty_frontier(self, f2lb):
        assert f2lb.compute_offsets().size == 0


@settings(max_examples=50, deadline=None)
@given(
    inserts=st.lists(st.integers(0, 1999), max_size=100),
    removes=st.lists(st.integers(0, 1999), max_size=100),
    bits=st.sampled_from([32, 64]),
)
def test_layer2_invariant_under_mutation(inserts, removes, bits):
    """layer2 bit == (layer1 word nonzero), after arbitrary insert/remove."""
    queue = Queue(capacity_limit=0)
    f = BitmapFrontier(queue, 2000, bits=bits, n_layers=2)
    f.insert(inserts)
    assert f.check_invariant()
    f.remove(removes)
    assert f.check_invariant()
    expected = set(inserts) - set(removes)
    assert sorted(f.active_elements()) == sorted(expected)
    # nonzero_words found via layer 2 must equal the true nonzero set
    true_nonzero = np.nonzero(np.asarray(f.words))[0]
    assert np.array_equal(f.nonzero_words(), true_nonzero)
