"""Cache models: exact simulator, vectorized estimator, their agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.cache import CacheSim, CacheStats, estimate_cache_hits, line_ids, unique_ints


class TestExactSim:
    def test_first_access_misses(self):
        sim = CacheSim(1024, 64, 4)
        assert sim.access(0) is False

    def test_repeat_hits(self):
        sim = CacheSim(1024, 64, 4)
        sim.access(0)
        assert sim.access(0) is True
        assert sim.access(32) is True  # same line

    def test_lru_eviction(self):
        # 1 set of 2 ways: lines A, B fill it; C evicts A
        sim = CacheSim(128, 64, 2)
        sim.access(0)      # line 0
        sim.access(64)     # line 1
        sim.access(128)    # line 2 -> evicts line 0
        assert sim.access(0) is False

    def test_lru_order_updates_on_hit(self):
        sim = CacheSim(128, 64, 2)
        sim.access(0)
        sim.access(64)
        sim.access(0)      # refresh line 0
        sim.access(128)    # should evict line 1, not 0
        assert sim.access(0) is True

    def test_too_small_cache_rejected(self):
        with pytest.raises(ValueError):
            CacheSim(64, 64, 4)

    def test_stats(self):
        sim = CacheSim(1024, 64, 4)
        st_ = sim.access_many([0, 0, 0, 64])
        assert st_.accesses == 4
        assert st_.hits == 2
        assert st_.misses == 2
        assert st_.hit_rate == 0.5


class TestEstimator:
    def test_empty_stream(self):
        assert estimate_cache_hits(np.empty(0, np.int64), 1024, 64).accesses == 0

    def test_sequential_stream_hits_line_reuse(self):
        # 16 accesses per line, sequential: only compulsory misses
        addrs = np.arange(1024) * 4
        lines = line_ids(addrs, 64)
        st_ = estimate_cache_hits(lines, 64 * 4, 64)  # tiny cache
        assert st_.misses == 64  # = unique lines
        assert st_.hit_rate > 0.9

    def test_fitting_working_set_all_rereferences_hit(self):
        lines = np.tile(np.arange(10), 100)
        st_ = estimate_cache_hits(lines, 64 * 16, 64)
        assert st_.misses == 10

    def test_overflowing_working_set_scales(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 1000, size=10_000)
        st_small = estimate_cache_hits(lines, 64 * 10, 64)
        st_big = estimate_cache_hits(lines, 64 * 1000, 64)
        assert st_small.hits < st_big.hits

    def test_hits_bounded_by_rereferences(self):
        lines = np.arange(100)  # no re-references at all
        st_ = estimate_cache_hits(lines, 1 << 20, 64)
        assert st_.hits == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_estimator_matches_exact_when_fitting(self, raw):
        """When the working set fits, estimator == exact LRU (fully assoc)."""
        lines = np.asarray(raw, dtype=np.int64)
        capacity_lines = 64  # > 31 distinct lines: everything fits
        est = estimate_cache_hits(lines, capacity_lines * 64, 64)
        sim = CacheSim(capacity_lines * 64, 64, ways=capacity_lines)
        exact = sim.access_many(lines * 64)
        assert est.hits == exact.hits

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=500))
    def test_estimator_invariants(self, raw):
        lines = np.asarray(raw, dtype=np.int64)
        st_ = estimate_cache_hits(lines, 4096, 64)
        unique = np.unique(lines).size
        assert 0 <= st_.hits <= st_.accesses - unique
        assert 0.0 <= st_.hit_rate <= 1.0


class TestLineIds:
    def test_mapping(self):
        assert list(line_ids(np.array([0, 63, 64, 127, 128]), 64)) == [0, 0, 1, 1, 2]


class TestUniqueInts:
    """``unique_ints`` is ``np.unique`` for 1-D integer arrays, by sorting."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([np.int32, np.uint32, np.int64]),
        st.one_of(
            st.just([]),
            st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=1),
            st.lists(st.integers(0, 3), max_size=200),
            st.lists(st.integers(0, 2**31 - 1), max_size=200),
        ),
    )
    def test_equals_np_unique(self, dtype, values):
        ids = np.array(values, dtype=dtype)
        got, want = unique_ints(ids), np.unique(ids)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
