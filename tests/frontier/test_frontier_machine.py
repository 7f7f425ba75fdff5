"""Random interleavings of frontier operations keep every layout's
elements, summary layers and memoized scans right.

The frontier layer has fast paths with state: scans memoized against a
mutation epoch and primed by inserts into a frontier known to be empty
(``Frontier._memoized``, ``_prime_scan_cache``), three bitmap insert
paths (Python ints for at most ``SHORT_STREAM`` ids that number at
most ``SCALAR_WORDS`` or lie within that many words, packed marks
within ``count_distinct``'s mark rule, a sort beyond it), the packed
path's two ways to prime the active scan, and the 2LB's active scan by
density.  The machine below drives
three frontiers of one layout, word width and size with random inserts
(clustered or scattered, unsorted, with repeats), removes, clears,
swaps, scans, set operations into a third frontier and advances over a
graph of the frontiers' size.  After every step each frontier must hold
its set model's elements in the view with memoization off, its cached
scans must equal fresh ones (``scan_cache_coherent``) and its layers
must agree (``check_invariant``).  An advance must give the functor
and the kernel what the NumPy path gives them: the same advance over a
graph that is not a ``CSRGraph`` (``PerCallGraph``) runs no walk.

Spies on the functions that take each path record which path every
bitmap insert, summary-layer active scan and advance ran.  It must be
the path the rules in docs/architecture.md give ("Small inputs on
Python ints", "Three bitmap insert paths"), and over the run every
path must run.

Tier-1 runs 300 examples of 25 steps.  ``--hypothesis-profile
frontier-full`` (registered in ``tests/conftest.py``) runs the machine
at the profile's size instead.
"""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.frontier import _bitops, bitmap, make_frontier
from repro.frontier.base import scan_memoization
from repro.frontier.bitmap import SCALAR_WORDS, BitmapFrontier
from repro.frontier.ops import frontier_intersection, frontier_subtraction, frontier_union, swap
from repro.frontier.vector import VectorFrontier
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.operators import advance
from repro.perfmodel.cache import MARK_SPAN_BASE, MARK_SPAN_PER_ACCESS, SHORT_STREAM
from repro.sycl import Queue
from tests.operators.test_sweep_record import PerCallGraph

#: layout name -> make_frontier keyword arguments (the tree at 3 layers)
LAYOUTS = {
    "bitmap": {"layout": "bitmap"},
    "2lb": {"layout": "2lb"},
    "tree": {"layout": "tree", "n_layers": 3},
    "vector": {"layout": "vector"},
    "boolmap": {"layout": "boolmap"},
}
SIZES = [300, 17_000, 40_000]
#: most ids an insert draws: 8 stay on the Python-int path, 60 cross
#: SHORT_STREAM, 400 and 3,000 pack or sort by the frontier's size
INSERT_CAPS = [8, 60, 400, 3000]
SET_OPS = {
    "union": (frontier_union, set.union),
    "intersection": (frontier_intersection, set.intersection),
    "subtraction": (frontier_subtraction, set.difference),
}
#: the profile that sizes the machine from the command line
FULL_PROFILE = "frontier-full"

#: one Counter of spied calls, by label, for each ``_ran`` under way
RECORDING = []
#: the paths the runs took, by name, as the spied calls show them
COVERED = Counter()
PATHS = {
    "python insert",
    "scattered small insert",
    "packed insert",
    "packed insert, active expanded from the marks",
    "packed insert, active sorted",
    "sorted insert",
    "walk",
    "numpy advance",
    "sparse active scan",
    "dense active scan",
}


@lru_cache(maxsize=None)
def _graph(n):
    """A weighted graph of ``n`` vertices: about three out-edges each,
    many with none, and every 16th a hub of 60 out-edges, past
    SHORT_STREAM, so a walk sometimes hands over to the vectorized
    expansion (``tests/graph/test_lookups.py`` pins that case)."""
    rng = np.random.default_rng(n)
    coo = gen.erdos_renyi(n, 3.0, seed=n, weighted=True)
    src = np.repeat(np.arange(0, n, 16), 60)
    dst = rng.integers(0, n, src.size)
    merged = COOGraph(
        n,
        np.concatenate([coo.src, src]),
        np.concatenate([coo.dst, dst]),
        np.concatenate([coo.weights, rng.random(src.size).astype(coo.weights.dtype)]),
    )
    return GraphBuilder(Queue(capacity_limit=0)).to_csr(merged.deduplicated())


def _ids(n, cap, clustered, seed):
    """Up to ``cap`` ids below ``n``, unsorted, with repeats: clustered
    in a window about as wide as their number, or scattered anywhere."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, cap + 1))
    if clustered:
        width = max(2, min(n, k + k // 2))
        ids = int(rng.integers(0, n - width + 1)) + rng.integers(0, width, k)
    else:
        ids = rng.integers(0, n, k)
    return ids.astype(np.int64)


def _insert_path(frontier, ids):
    """The bitmap insert path ``ids`` must take, by the rules of
    ``BitmapFrontier.insert``."""
    n, k = frontier.n_elements, ids.size
    shift = frontier.bits.bit_length() - 1
    spanned = int(ids.max() >> shift) - int(ids.min() >> shift) + 1
    if k <= SHORT_STREAM:
        if k <= SCALAR_WORDS or spanned <= SCALAR_WORDS:
            return ["python insert"]
        path = ["scattered small insert"]
    else:
        path = []
    if n <= MARK_SPAN_PER_ACCESS * k + MARK_SPAN_BASE:
        path.append("packed insert")
        if frontier._cached_was_empty():
            sorted_ = n > MARK_SPAN_BASE and n > MARK_SPAN_PER_ACCESS // 2 * k
            path.append("packed insert, active " + ("sorted" if sorted_ else "expanded from the marks"))
    else:
        path.append("sorted insert")
    return path


def _insert_path_ran(calls, k):
    """The bitmap insert path that one insert of ``k`` ids ran, as its
    spied ``calls`` show it."""
    if calls["_set_few_bits"]:
        return ["python insert"]
    path = ["scattered small insert"] if k <= SHORT_STREAM else []
    if calls["packbits"]:
        path.append("packed insert")
        if calls["flatnonzero of marks"]:
            path.append("packed insert, active expanded from the marks")
        elif calls["unique_ints"]:
            path.append("packed insert, active sorted")
    else:
        path.append("sorted insert")
    return path


def _spy(monkeypatch, owner, name, label=None):
    """Count every call of ``owner.name`` in each recording Counter,
    under ``label(args, result)`` or the name."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        key = label(args, result) if label else name
        for calls in RECORDING:
            calls[key] += 1
        return result

    monkeypatch.setattr(owner, name, spy)


def _ran(step, *args):
    """``step(*args)`` and the spied calls it made."""
    calls = Counter()
    RECORDING.append(calls)
    try:
        result = step(*args)
    finally:
        RECORDING.pop()
    return result, calls


class _NumPy:
    """NumPy as ``repro.frontier.bitmap`` sees it, so that the calls it
    makes can be spied on."""

    def __getattr__(self, name):
        return getattr(np, name)


def _active_scan_checked(scan_compute):
    """``BitmapFrontier._scan_compute`` that checks a summary-layer
    active scan expanded the layer-0 words its density calls for (the
    walk for the nonzero words expands the layers above)."""

    def checked(frontier, key):
        result, calls = _ran(scan_compute, frontier, key)
        if key == "active" and frontier.n_layers > 1 and result.size:
            words = np.unique(result >> (frontier.bits.bit_length() - 1))
            want = "dense active scan" if 2 * words.size > frontier.n_words else "sparse active scan"
            took = {"expand_words": "dense active scan", "expand_selected_words": "sparse active scan"}
            ran = [took[name] for name in took if calls[name, id(frontier.words)]]
            assert ran == [want], (ran, want)
            COVERED[want] += 1
        return result

    return checked


@pytest.fixture
def spies(monkeypatch):
    """Spies on the functions whose calls show which path a step ran."""

    def of_marks(args, _):
        return "flatnonzero of marks" if args[0].dtype == np.bool_ else "flatnonzero"

    RECORDING.clear()
    COVERED.clear()
    numpy = _NumPy()
    monkeypatch.setattr(bitmap, "np", numpy)
    _spy(monkeypatch, numpy, "packbits")
    _spy(monkeypatch, numpy, "flatnonzero", of_marks)
    for name in ("_set_few_bits", "unique_ints"):
        _spy(monkeypatch, bitmap, name)
    for name in ("expand_words", "expand_selected_words"):
        _spy(monkeypatch, _bitops, name, lambda args, _, name=name: (name, id(args[0])))
    _spy(monkeypatch, advance, "_walk", lambda _, result: "walk handed over" if result is None else "walked")
    _spy(monkeypatch, advance, "expand")
    monkeypatch.setattr(BitmapFrontier, "_scan_compute", _active_scan_checked(BitmapFrontier._scan_compute))


def _same_stream(got, want):
    assert (got.item_bytes, got.region, got.is_write, got.label) == (
        want.item_bytes,
        want.region,
        want.is_write,
        want.label,
    )
    assert got.addresses.dtype == want.addresses.dtype, want.label
    np.testing.assert_array_equal(got.addresses, want.addresses, err_msg=want.label)


pick = st.integers(0, 2)
ids_args = st.tuples(st.sampled_from(INSERT_CAPS), st.booleans(), st.integers(0, 2**32 - 1))


class FrontierMachine(RuleBasedStateMachine):
    @initialize(layout=st.sampled_from(sorted(LAYOUTS)), bits=st.sampled_from([32, 64]), n=st.sampled_from(SIZES))
    def start(self, layout, bits, n):
        self.queue = Queue(capacity_limit=0)
        kwargs = dict(LAYOUTS[layout])
        if layout not in ("vector", "boolmap"):
            kwargs["bits"] = bits
        self.frontiers = [make_frontier(self.queue, n, **kwargs) for _ in range(3)]
        self.models = [set(), set(), set()]
        self.n = n
        self.graph = _graph(n)
        self.graph.queue.reset_profile()

    def _draw_ids(self, args):
        cap, clustered, seed = args
        return _ids(self.n, cap, clustered, seed)

    @rule(which=pick, args=ids_args, cleared=st.booleans())
    def insert(self, which, args, cleared):
        """An insert, half of them into a frontier just cleared: known
        to be empty, it primes its scans."""
        frontier, ids = self.frontiers[which], self._draw_ids(args)
        if cleared:
            frontier.clear()
            self.models[which] = set()
        if isinstance(frontier, BitmapFrontier):
            want = _insert_path(frontier, ids)
            _, calls = _ran(frontier.insert, ids)
            ran = _insert_path_ran(calls, ids.size)
            assert ran == want, (ran, want)
            COVERED.update(ran)
        else:
            frontier.insert(ids)
        self.models[which] |= set(ids.tolist())

    @rule(which=pick, args=ids_args)
    def remove(self, which, args):
        ids = self._draw_ids(args)
        self.frontiers[which].remove(ids)
        self.models[which] -= set(ids.tolist())

    @rule(which=pick)
    def clear(self, which):
        self.frontiers[which].clear()
        self.models[which] = set()

    @rule(first=pick, second=pick)
    def swap(self, first, second):
        if first == second:
            return
        swap(self.frontiers[first], self.frontiers[second])
        self.models[first], self.models[second] = self.models[second], self.models[first]

    @rule(which=pick)
    def scan(self, which):
        """The memoized scans, as a driver and an advance ask for them."""
        frontier, model = self.frontiers[which], self.models[which]
        assert frontier.empty() == (not model)
        assert frontier.count() == len(model)
        assert frontier.active_elements().tolist() == sorted(model)
        if isinstance(frontier, BitmapFrontier):
            shift = frontier.bits.bit_length() - 1
            words = sorted({v >> shift for v in model})
            assert frontier.nonzero_words().tolist() == words
            if frontier.n_layers > 1:
                assert frontier.compute_offsets().tolist() == words

    @rule(op=st.sampled_from(sorted(SET_OPS)), order=st.permutations([0, 1, 2]))
    def set_op(self, op, order):
        first, second, out = order
        kernel, model_op = SET_OPS[op]
        kernel(self.frontiers[first], self.frontiers[second], self.frontiers[out])
        self.models[out] = model_op(self.models[first], self.models[second])

    @rule(source=pick, into=pick, stride=st.sampled_from([1, 2, 3]))
    def advance(self, source, into, stride):
        """An advance from one frontier into another, against the same
        advance over the NumPy path.  The functor accepts every
        ``stride``-th edge."""
        if source == into:
            return
        f_in, f_out = self.frontiers[source], self.frontiers[into]
        calls = []

        def functor(src, dst, eid, w):
            calls.append((src, dst, eid, w))
            return eid % stride == 0

        active = f_in.active_elements()
        edges = int(self.graph.out_degrees(active).sum())
        expected_edges = active.size * self.graph.get_edge_count() / self.n
        vectorized = isinstance(f_in, VectorFrontier) or max(active.size, expected_edges, edges) > SHORT_STREAM
        want = "numpy advance" if vectorized else "walk"
        walked, spied = _ran(advance.frontier_workload, self.graph, f_in, f_out, functor)
        ran = [path for path, name in (("walk", "walked"), ("numpy advance", "expand")) if spied[name]]
        assert ran == [want], (ran, want)
        COVERED[want] += 1
        reference = advance.frontier_workload(PerCallGraph(self.graph), f_in, None, functor)
        if calls:
            assert len(calls) == 2
            for got, want in zip(*calls):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            _, dst, eid, _ = calls[0]
            self.models[into] |= set(dst[eid % stride == 0].tolist())
        for field in ("name", "geometry", "active_lanes", "instructions_per_lane", "serial_ops", "engaged_subgroups"):
            got, want = getattr(walked, field), getattr(reference, field)
            assert got == want and type(got) is type(want), field
        assert len(walked.streams) >= len(reference.streams)
        for got, want in zip(walked.streams, reference.streams):
            _same_stream(got, want)

    @invariant()
    def frontiers_hold_their_models(self):
        """Checked without filling a cache: the next step meets the
        frontiers' caches as the rules left them."""
        if not hasattr(self, "frontiers"):
            return
        with scan_memoization(False):
            for frontier, model in zip(self.frontiers, self.models):
                assert frontier.active_elements().tolist() == sorted(model)
                assert frontier.count() == len(model)
                assert frontier.scan_cache_coherent() is None
                assert frontier.check_invariant()


def test_frontier_machine(spies):
    size = {} if settings.get_current_profile_name() == FULL_PROFILE else {"max_examples": 300, "stateful_step_count": 25}
    run_state_machine_as_test(
        FrontierMachine,
        settings=settings(
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
            **size,
        ),
    )
    assert not [path for path in PATHS if not COVERED[path]], COVERED
