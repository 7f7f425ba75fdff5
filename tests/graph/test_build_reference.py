"""Graph construction against the sorts it replaced.

The builder's ``_compress`` and ``COOGraph.deduplicated`` /
``symmetrized`` order edges with one packed-key sort
(:func:`repro.graph.coo._stable_argsort`).  The ``reference_*``
functions below are the implementation before it — ``np.lexsort``,
NumPy's stable argsort and ``np.unique(return_index=True)`` — kept here
as the reference: every permutation, every kept arc and so every graph
array must come out byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, _compress
from repro.graph.coo import COOGraph, _stable_argsort
from repro.graph.datasets import dataset_names, load_dataset
from repro.service.workload import default_catalog
from repro.sycl import Queue


# --------------------------------------------------------------------- #
# the reference: graph construction before the packed sort              #
# --------------------------------------------------------------------- #
def reference_compress(major, minor, n, sort_minor):
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    if sort_minor:
        perm = np.lexsort((minor, major))
    else:
        perm = np.argsort(major, kind="stable")
    counts = np.bincount(major, minlength=n)
    ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return ptr, perm


def reference_deduplicated(coo):
    key = coo.src.astype(np.int64) * coo.n_vertices + coo.dst.astype(np.int64)
    _, idx = np.unique(key, return_index=True)
    return COOGraph(
        coo.n_vertices,
        coo.src[idx],
        coo.dst[idx],
        None if coo.weights is None else coo.weights[idx],
    )


def reference_symmetrized(coo):
    src = np.concatenate([coo.src, coo.dst])
    dst = np.concatenate([coo.dst, coo.src])
    w = None
    if coo.weights is not None:
        w = np.concatenate([coo.weights, coo.weights])
    key = src.astype(np.int64) * coo.n_vertices + dst.astype(np.int64)
    _, idx = np.unique(key, return_index=True)
    return COOGraph(coo.n_vertices, src[idx], dst[idx], None if w is None else w[idx])


# --------------------------------------------------------------------- #
# checks                                                                #
# --------------------------------------------------------------------- #
def assert_identical(got, want):
    """Same dtype, shape and bytes (None only where None is expected)."""
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_coo(got, want):
    assert got.n_vertices == want.n_vertices
    for field in ("src", "dst", "weights"):
        assert_identical(getattr(got, field), getattr(want, field))


def check_construction(coo):
    """Every construction path of ``coo`` equals the reference, and so
    do the device CSR and CSC arrays, weights included."""
    n = coo.n_vertices
    for major, minor in ((coo.src, coo.dst), (coo.dst, coo.src)):
        for sort_minor in (True, False):
            ptr, perm = _compress(major, minor, n, sort_minor)
            want_ptr, want_perm = reference_compress(major, minor, n, sort_minor)
            assert_identical(ptr, want_ptr)
            assert_identical(perm, want_perm)
    assert_same_coo(coo.deduplicated(), reference_deduplicated(coo))
    assert_same_coo(coo.symmetrized(), reference_symmetrized(coo))
    builder = GraphBuilder(Queue(capacity_limit=0))
    for graph, major, minor, names in (
        (builder.to_csr(coo), coo.src, coo.dst, ("row_ptr", "col_idx")),
        (builder.to_csc(coo), coo.dst, coo.src, ("col_ptr", "row_idx")),
    ):
        want_ptr, perm = reference_compress(major, minor, n, True)
        assert np.array_equal(getattr(graph, names[0]), want_ptr)
        assert_identical(getattr(graph, names[1]), minor[perm])
        if coo.weights is not None:
            assert_identical(graph.weights, coo.weights[perm])


# --------------------------------------------------------------------- #
# the sort helper, on both sides of its 63-bit budget                   #
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 300), data=st.data())
def test_stable_argsort_matches_stable_argsort(m, data):
    b = max(m - 1, 0).bit_length()
    # the widest bound the packed words hold, then one bit past it
    fits = 1 << (63 - b)
    for bound in (fits, 2 * fits):
        top = min(bound, 1 << 63) - 1
        # ties at both ends of the range, where stability and the packing
        # can go wrong
        keys = st.one_of(st.integers(0, 3), st.integers(top - 3, top), st.integers(0, top))
        key = np.array(data.draw(st.lists(keys, min_size=m, max_size=m)), dtype=np.int64)
        assert_identical(_stable_argsort(key, bound), np.argsort(key, kind="stable"))


def test_stable_argsort_falls_back_past_the_budget(monkeypatch):
    key = np.array([5, 3, 5, 0, 3], dtype=np.int64)
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(k) or argsort(*a, **k))
    assert _stable_argsort(key, 1 << 60).tolist() == [3, 1, 4, 0, 2]
    assert calls == []
    assert _stable_argsort(key, 1 << 61).tolist() == [3, 1, 4, 0, 2]
    assert calls == [{"kind": "stable"}]


# --------------------------------------------------------------------- #
# edge lists: random, empty, one vertex, self-loops, all duplicates     #
# --------------------------------------------------------------------- #
@st.composite
def coo_graphs(draw):
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    # distinct weights, so keeping the wrong duplicate shows
    weights = np.arange(len(edges), dtype=np.float32) if draw(st.booleans()) else None
    return COOGraph(n, src, dst, weights)


@settings(max_examples=80, deadline=None)
@given(coo=coo_graphs())
def test_construction_matches_reference(coo):
    check_construction(coo)


@pytest.mark.parametrize(
    "coo",
    [
        COOGraph(1, [], []),
        COOGraph(5, [], [], []),
        COOGraph(1, [0, 0, 0], [0, 0, 0], [3.0, 2.0, 1.0]),
        COOGraph(6, [4] * 7, [2] * 7, np.arange(7.0)),
        COOGraph(4, [0, 1, 2, 3, 3, 1], [0, 1, 2, 3, 0, 0], np.arange(6.0)),
    ],
    ids=["empty", "empty-weighted", "one-vertex-loops", "all-duplicates", "self-loops"],
)
def test_edge_cases_match_reference(coo):
    check_construction(coo)


# --------------------------------------------------------------------- #
# edge lists already in order, which skip the sort, and their neighbours #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "coo",
    [
        COOGraph(5, [0, 0, 1, 2, 3, 3, 4], [1, 3, 2, 0, 1, 4, 0], np.arange(7.0)),
        COOGraph(4, [0, 0, 0, 1, 1, 3, 3], [2, 2, 3, 0, 0, 1, 1], np.arange(7.0)),
        COOGraph(5, [4, 3, 3, 2, 1, 0, 0], [0, 4, 1, 0, 2, 3, 1], np.arange(7.0)),
        COOGraph(3, [1], [2], [5.0]),
        COOGraph(3, [], [], []),
    ],
    ids=["csr-order", "in-order-repeated-keys", "reverse-order", "one-edge", "empty"],
)
def test_ordered_edge_lists_match_reference(coo):
    check_construction(coo)


def test_sorted_keys_skip_the_sort(monkeypatch):
    """A key that never decreases takes the identity permutation without
    sorting; one that decreases once sorts."""
    sorts = []

    def counted(key, bound):
        sorts.append(key.size)
        return _stable_argsort(key, bound)

    monkeypatch.setattr("repro.graph.builder._stable_argsort", counted)
    src, dst = np.array([0, 0, 1, 1, 2]), np.array([1, 1, 0, 2, 2])
    assert _compress(src, dst, 3, True)[1].tolist() == [0, 1, 2, 3, 4]
    assert _compress(src, dst, 3, False)[1].tolist() == [0, 1, 2, 3, 4]
    assert sorts == []
    assert _compress(src[::-1], dst[::-1], 3, True)[1].tolist() == [3, 4, 2, 1, 0]
    assert sorts == [5]


# --------------------------------------------------------------------- #
# the graphs the tree ships                                             #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("name", dataset_names())
def test_tiny_datasets_match_reference(name, weighted):
    check_construction(load_dataset(name, "tiny", weighted=weighted))


@pytest.mark.parametrize("spec", default_catalog(seed=0, scale="small"), ids=lambda s: s.name)
def test_small_catalog_matches_reference(spec):
    check_construction(spec.coo)


# the recipes of the benchmark's deep and wide graphs
@pytest.mark.parametrize(
    "make",
    [
        lambda: gen.road_network(8, 160, seed=0, weighted=True),
        lambda: gen.rmat(14, 16, seed=0, weighted=True),
    ],
    ids=["deep-road", "wide-rmat"],
)
def test_benchmark_graphs_match_reference(make):
    check_construction(make())
