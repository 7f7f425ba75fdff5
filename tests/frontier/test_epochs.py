"""Mutation-epoch memoization: every mutation invalidates, caches never lie.

The single-scan hot path (PR 3) rests on two guarantees:

* every operation that can change the active set bumps the frontier's
  epoch (or primes the cache with the provably-correct new view);
* a memoized scan is bit-identical to a fresh recomputation, in every
  reachable state — checked here directly and enforced at runtime by
  strict mode's cache-coherence replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import cc
from repro.algorithms.sssp import sssp
from repro.checking import graphgen
from repro.checking.invariants import strict_mode
from repro.errors import InvariantViolation
from repro.frontier import make_frontier
from repro.frontier.base import scan_memoization
from repro.frontier.ops import (
    frontier_intersection,
    frontier_subtraction,
    frontier_union,
    swap,
)
from repro.graph.builder import GraphBuilder
from repro.sycl import Queue, get_device

LAYOUTS = ["bitmap", "2lb", "tree", "vector", "boolmap"]
N = 300


@pytest.fixture(params=LAYOUTS)
def layout(request):
    return request.param


@pytest.fixture
def frontier(layout, queue):
    return make_frontier(queue, N, layout=layout)


def fresh_view(f):
    """Uncached active set, bypassing the memoization entirely."""
    with scan_memoization(False):
        return f.active_elements()


class TestEveryMutationBumps:
    def test_insert_bumps(self, frontier):
        e0 = frontier.epoch
        frontier.insert([3, 7])
        assert frontier.epoch > e0

    def test_remove_bumps(self, frontier):
        frontier.insert([3, 7])
        e0 = frontier.epoch
        frontier.remove([3])
        assert frontier.epoch > e0

    def test_clear_bumps(self, frontier):
        frontier.insert([3])
        e0 = frontier.epoch
        frontier.clear()
        assert frontier.epoch > e0

    def test_swap_bumps_both(self, layout, queue):
        a = make_frontier(queue, N, layout=layout)
        b = make_frontier(queue, N, layout=layout)
        a.insert([1])
        ea, eb = a.epoch, b.epoch
        swap(a, b)
        assert a.epoch > ea and b.epoch > eb

    @pytest.mark.parametrize(
        "op", [frontier_union, frontier_intersection, frontier_subtraction]
    )
    def test_setops_bump_out(self, layout, queue, op):
        a = make_frontier(queue, N, layout=layout)
        b = make_frontier(queue, N, layout=layout)
        out = make_frontier(queue, N, layout=layout)
        a.insert([1, 5, 9])
        b.insert([5, 9, 11])
        e0 = out.epoch
        op(a, b, out)
        assert out.epoch > e0
        # the op writes words directly (bitmap family) — the memoized view
        # must still match a fresh scan
        assert np.array_equal(out.active_elements(), fresh_view(out))
        assert out.scan_cache_coherent() is None

    def test_vector_deduplicate_bumps(self, queue):
        f = make_frontier(queue, N, layout="vector")
        f.insert([4, 4, 2])
        f.active_elements()
        e0 = f.epoch
        f.deduplicate()
        assert f.epoch > e0
        assert np.array_equal(f.active_elements(), [2, 4])


class TestMemoizedScans:
    def test_cache_hit_is_same_object(self, frontier):
        frontier.insert([10, 20, 30])
        frontier.remove([20])  # leave a non-primed state
        first = frontier.active_elements()
        assert frontier.active_elements() is first
        assert frontier.count() == first.size

    def test_disabled_recomputes_every_call(self, frontier):
        frontier.insert([10, 20])
        frontier.remove([20])
        with scan_memoization(False):
            a, b = frontier.active_elements(), frontier.active_elements()
        assert a is not b
        assert np.array_equal(a, b)

    def test_reenabling_never_revives_stale_cache(self, frontier):
        frontier.insert([1])
        frontier.active_elements()
        with scan_memoization(False):
            frontier.insert([2])  # epoch advances while memoization is off
        assert np.array_equal(frontier.active_elements(), [1, 2])

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "clear"]),
                st.lists(st.integers(0, N - 1), max_size=8),
            ),
            max_size=12,
        ),
        lay=st.sampled_from(LAYOUTS),
    )
    def test_memoized_equals_fresh_under_random_ops(self, ops, lay):
        q = Queue(get_device("v100s"), capacity_limit=0)
        f = make_frontier(q, N, layout=lay)
        reference = set()
        for name, ids in ops:
            if name == "insert":
                f.insert(ids)
                reference |= set(ids)
            elif name == "remove":
                f.remove(ids)
                reference -= set(ids)
            else:
                f.clear()
                reference = set()
            assert list(f.active_elements()) == sorted(reference)
            assert f.count() == len(reference)
            assert np.array_equal(f.active_elements(), fresh_view(f))
            assert f.scan_cache_coherent() is None


#: graphs and runners (each returns the result array) of the whole-run check
WHOLE_RUN_GRAPHS = {
    "chain": lambda: graphgen.chain(300).symmetrized(),
    "power_law": lambda: graphgen.power_law(n=1500, avg_degree=6.0, seed=7),
}
WHOLE_RUNS = {
    "bfs": lambda g, layout: bfs(g, 0, layout=layout).distances,
    "sssp": lambda g, layout: sssp(g, 0, layout=layout).distances,
    "cc": lambda g, layout: cc(g, layout=layout).labels,
}


@pytest.mark.parametrize("graph", sorted(WHOLE_RUN_GRAPHS))
@pytest.mark.parametrize("run_layout", ["2lb", "bitmap", "vector", "boolmap"])
@pytest.mark.parametrize("algorithm", sorted(WHOLE_RUNS))
def test_whole_run_identical_without_memoization(algorithm, run_layout, graph):
    """Memoization moves host time only: a whole run gives the same
    result bytes and modeled ns with it off."""
    coo = WHOLE_RUN_GRAPHS[graph]()
    if algorithm == "cc":
        coo = coo.symmetrized()
    runs = []
    for enabled in (True, False):
        q = Queue(get_device("v100s"), capacity_limit=0)
        g = GraphBuilder(q).to_csr(coo)
        q.reset_profile()
        with scan_memoization(enabled):
            values = WHOLE_RUNS[algorithm](g, run_layout)
        runs.append((q.elapsed_ns, np.asarray(values).tobytes()))
    assert runs[0] == runs[1]


class TestPrimedInserts:
    def test_insert_into_cleared_frontier_is_exact(self, frontier):
        frontier.insert([9])  # arbitrary prior state
        frontier.clear()
        frontier.insert([40, 3, 40, 17])  # duplicates, unordered
        assert list(frontier.active_elements()) == [3, 17, 40]
        assert frontier.scan_cache_coherent() is None

    def test_primed_nonzero_words_match(self, layout, queue):
        if layout not in ("bitmap", "2lb", "tree"):
            pytest.skip("word addressing is bitmap-family only")
        f = make_frontier(queue, N, layout=layout, bits=32)
        f.clear()
        f.insert([0, 31, 32, 95])
        assert list(f.nonzero_words()) == [0, 1, 2]
        assert f.scan_cache_coherent() is None


class TestSwapCacheTransfer:
    def test_views_follow_payloads(self, layout, queue):
        a = make_frontier(queue, N, layout=layout)
        b = make_frontier(queue, N, layout=layout)
        a.insert([1, 2])
        b.insert([7])
        va, vb = a.active_elements(), b.active_elements()
        swap(a, b)
        # the still-valid scans travel with the payloads: no recompute
        assert a.active_elements() is vb
        assert b.active_elements() is va
        assert a.scan_cache_coherent() is None
        assert b.scan_cache_coherent() is None

    def test_swap_with_one_stale_side(self, layout, queue):
        a = make_frontier(queue, N, layout=layout)
        b = make_frontier(queue, N, layout=layout)
        a.insert([1, 2])
        a.active_elements()
        b.insert([7])
        b.insert([9])  # second insert: b's cache is invalid
        swap(a, b)
        assert list(a.active_elements()) == [7, 9]
        assert list(b.active_elements()) == [1, 2]


class TestStaleCacheDetection:
    def test_coherence_replay_flags_bypassing_write(self, queue):
        f = make_frontier(queue, N, layout="bitmap", bits=32)
        f.insert([0])
        f.remove([5])  # non-primed state: cache comes from a real scan
        f.active_elements()
        np.asarray(f.words)[0] |= 2  # activate id 1 without an epoch bump
        assert f.scan_cache_coherent() == "active"

    def test_strict_mode_raises_on_stale_cache(self, queue):
        with strict_mode(queue) as checker:
            f = make_frontier(queue, N, layout="bitmap", bits=32)
            f.insert([0])
            f.remove([5])
            f.active_elements()
            np.asarray(f.words)[0] |= 2
            with pytest.raises(InvariantViolation, match="stale frontier scan cache"):
                checker.check_now(queue)
