"""The advance launch shape is bit-identical to its first formulation.

``reference_shape`` is a frozen copy of the original
:func:`characterize_bitmap_advance`: one ``bincount`` per workgroup
quantity, NumPy reductions over the workgroups.  Every advance kernel's
geometry, lane counts and serial ops derive from it, so the function
must reproduce every :class:`AdvanceShape` field exactly, with its
Python type.  NumPy's pairwise ``sum`` adds in a different order from
8 elements up, so 1, 2-7 and at least 8 workgroups are all covered; 2-7
workgroups holding at most ``SHORT_STREAM`` active vertices are summed
with Python floats, so 48 and 49 vertices are too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.load_balance import characterize_bitmap_advance
from repro.sycl.device import amd_mi100, nvidia_v100s
from repro.sycl.ndrange import NDRange

SCAN_OPS_PER_LANE = 6.0
EDGE_OPS = 24.0
IMBALANCE_WEIGHT = 0.15


def reference_shape(params, words_scanned, active_vertices, degrees, scan_position, max_workgroups=0):
    """The shape's fields as the original function computed them."""
    cf = max(1, params.coarsening_factor)
    if cf > 1:
        n_wg = max(1, min(words_scanned, max_workgroups or words_scanned))
    else:
        n_wg = max(1, words_scanned)
    rounds = -(-max(1, words_scanned) // n_wg)
    wg_size = params.workgroup_size
    geometry = NDRange(n_wg * wg_size, wg_size).resolve(wg_size, params.subgroup_size)
    edges = int(degrees.sum()) if degrees.size else 0
    passes = max(1.0, params.bitmap_bits / params.subgroup_size)
    instructions = SCAN_OPS_PER_LANE * passes * rounds
    sgs_per_wg = max(1, params.workgroup_size // params.subgroup_size)
    msi_on = params.bitmap_bits <= params.subgroup_size
    if active_vertices.size:
        wg_of_vertex = scan_position % n_wg
        wg_bits = np.bincount(wg_of_vertex, minlength=n_wg)
        wg_edges = np.bincount(wg_of_vertex, weights=degrees.astype(np.float64), minlength=n_wg)
        if msi_on:
            engaged = np.minimum(sgs_per_wg, np.maximum(1, wg_bits))
        else:
            slice_limit = max(1, int(cf * params.bitmap_bits // params.subgroup_size))
            engaged = np.minimum(sgs_per_wg, np.minimum(slice_limit, np.maximum(1, wg_bits)))
        inflation = sgs_per_wg / engaged
        edge_ops = float((wg_edges * inflation).sum()) * EDGE_OPS
        engaged_total = float(engaged[wg_bits > 0].sum())
        max_wg_edges = int(wg_edges.max())
        mean_wg_edges = edges / n_wg
        imbalance_excess = (max_wg_edges - mean_wg_edges) * n_wg
    else:
        edge_ops = 0.0
        max_wg_edges = 0
        imbalance_excess = 0.0
        engaged_total = 1.0
    serial_ops = edge_ops + IMBALANCE_WEIGHT * imbalance_excess * EDGE_OPS
    active_lanes = int(min(geometry.total_lanes, active_vertices.size + edges / max(1.0, passes)))
    return {
        "geometry": geometry,
        "active_lanes": active_lanes,
        "instructions_per_lane": instructions,
        "serial_ops": serial_ops,
        "n_workgroups": n_wg,
        "words_scanned": words_scanned,
        "edges": edges,
        "max_wg_edges": max_wg_edges,
        "engaged_subgroups": engaged_total,
    }


DEVICES = {"v100s": nvidia_v100s, "mi100": amd_mi100}
#: inspector settings: all optimizations, MSI off, CF off
INSPECTIONS = {
    "all": {},
    "no-msi": {"match_subgroup_to_word": False},
    "no-cf": {"coarsen": False},
}


def assert_same_shape(params, words, active, degrees, position, cap):
    shape = characterize_bitmap_advance(params, words, active, degrees, position, max_workgroups=cap)
    expected = reference_shape(params, words, active, degrees, position, max_workgroups=cap)
    for field, value in expected.items():
        got = getattr(shape, field)
        assert got == value, field
        assert type(got) is type(value), (field, type(got), type(value))
    geometry = shape.geometry
    assert (geometry.global_size, geometry.workgroup_size, geometry.subgroup_size) == (
        expected["geometry"].global_size,
        expected["geometry"].workgroup_size,
        expected["geometry"].subgroup_size,
    )
    assert geometry.num_workgroups == expected["geometry"].num_workgroups
    assert geometry.total_lanes == expected["geometry"].total_lanes
    return shape


@st.composite
def advances(draw):
    """An advance over 1, 2-7 or at least 8 workgroups, with frontiers
    from empty to a few hundred vertices spread over every word or over
    2-7 busy ones, the per-workgroup bit counts that make
    ``sgs_per_wg / engaged`` a non-integer, zero degrees and scan
    positions in or out of order."""
    workgroups = draw(st.sampled_from(["one", "few", "many"]))
    if workgroups == "one":
        words = draw(st.integers(1, 3))
        cap = draw(st.sampled_from([1, 0])) if words == 1 else 1
    elif workgroups == "few":
        words = draw(st.integers(2, 40))
        cap = draw(st.integers(2, 7))
    else:
        words = draw(st.integers(8, 3000))
        cap = draw(st.sampled_from([0, 8, 9, 160, 2560]))
    n_active = draw(st.one_of(st.just(0), st.integers(1, 7), st.integers(8, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        position = rng.integers(0, words, n_active)
    else:
        # a few busy words, several active bits in each: inflations such
        # as 4/3 make the per-workgroup terms inexact, so the order they
        # are added in shows
        busy = rng.choice(words, size=min(words, draw(st.integers(2, 7))), replace=False)
        position = rng.choice(busy, n_active)
    if draw(st.booleans()):
        position.sort()
    degree_cap = draw(st.sampled_from([1, 4, 50, 100_000]))
    degrees = rng.integers(0, degree_cap, n_active)
    if draw(st.booleans()):
        degrees //= 2  # the pull advance's expected half scan
    active = np.sort(rng.integers(0, 1 << 20, n_active))
    return words, active, degrees.astype(np.int64), position.astype(np.int64), cap


@pytest.mark.parametrize("inspection", sorted(INSPECTIONS))
@pytest.mark.parametrize("device", sorted(DEVICES))
@settings(max_examples=120, deadline=None)
@given(advance=advances())
def test_shape_matches_reference(device, inspection, advance):
    params = DEVICES[device]().inspect(**INSPECTIONS[inspection])
    words, active, degrees, position, cap = advance
    assert_same_shape(params, words, active, degrees, position, cap)


@pytest.mark.parametrize("inspection", sorted(INSPECTIONS))
@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("bits_per_workgroup", [1, 2, 3, 5])
def test_one_workgroup_non_integer_inflation(device, inspection, bits_per_workgroup):
    """One workgroup holding 1, 2, 3 or 5 active bits: 4 subgroups over
    3 engaged is the inflation that is no whole number."""
    params = DEVICES[device]().inspect(**INSPECTIONS[inspection])
    active = np.arange(bits_per_workgroup, dtype=np.int64) * 7
    degrees = np.array([3, 0, 11, 1, 2][:bits_per_workgroup], dtype=np.int64)
    position = np.zeros(bits_per_workgroup, dtype=np.int64)
    shape = assert_same_shape(params, 1, active, degrees, position, 2560)
    assert shape.n_workgroups == 1


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("words", [1, 5, 64])
def test_empty_frontier(device, words):
    params = DEVICES[device]().inspect()
    empty = np.empty(0, dtype=np.int64)
    assert_same_shape(params, words, empty, empty, empty, 2560)


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_few_busy_workgroups_among_many(device):
    """20 workgroups, 5 of them busy with 3 active bits each: the terms
    ``edges * 4/3`` are inexact, and NumPy's pairwise sum over all 20
    adds them in another order than a loop over the busy 5 would.  These
    edge counts carry that last-bit difference into ``serial_ops``."""
    params = DEVICES[device]().inspect()
    busy = np.array([1, 3, 9, 14, 18])
    wg_edges = np.array([67079, 80500, 2266, 80794, 46885])
    position = np.repeat(busy, 3)
    degrees = np.stack([wg_edges // 3, wg_edges // 3, wg_edges - 2 * (wg_edges // 3)], axis=1).ravel()
    active = np.arange(position.size, dtype=np.int64)
    shape = assert_same_shape(params, 20, active, degrees.astype(np.int64), position.astype(np.int64), 2560)
    assert shape.n_workgroups == 20


#: active bits and edges per workgroup whose terms ``edges * 4/3`` and
#: ``edges * 4/4`` NumPy adds pairwise at 8 workgroups, to another last
#: bit than left to right (workgroup 4's 6 bits saturate its engagement)
BUSY_BITS = [3, 4, 4, 3, 6, 3, 4, 3]
BUSY_EDGES = [44992, 98744, 18656, 63275, 42698, 67432, 75570, 32997]


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("workgroups", [7, 8])
@pytest.mark.parametrize("n_active", [48, 49])
def test_both_sides_of_the_python_cutoff(device, workgroups, n_active):
    """7 vs 8 workgroups of a persistent grid over more scanned words (20)
    than workgroups, holding 48 vs 49 active vertices.  Fewer than 8
    workgroups holding at most SHORT_STREAM vertices are summed with
    Python floats, left to right; at 8 these terms sum to another last
    bit that way than NumPy's, so summing 8 workgroups in Python fails
    here."""
    params = DEVICES[device]().inspect()
    bits, edges = BUSY_BITS[:workgroups], BUSY_EDGES[:workgroups]
    bits[4] += n_active - sum(bits)  # extra bits where engagement is saturated
    sgs_per_wg = params.workgroup_size // params.subgroup_size
    terms = np.array(edges, dtype=np.float64) * (sgs_per_wg / np.minimum(sgs_per_wg, bits))
    left_to_right = 0.0
    for term in terms.tolist():
        left_to_right += term
    assert (left_to_right != terms.sum()) == (workgroups == 8)
    position, degrees = [], []
    for wg, (n_bits, wg_edges) in enumerate(zip(bits, edges)):
        # vertex j of workgroup wg scans word wg or wg + workgroups
        position += [wg + workgroups * (j % 2) for j in range(n_bits)]
        share = [wg_edges // n_bits] * n_bits
        share[0] += wg_edges - sum(share)
        degrees += share
    active = np.arange(n_active, dtype=np.int64) * 3
    shape = assert_same_shape(
        params, 20, active, np.array(degrees, dtype=np.int64), np.array(position, dtype=np.int64), workgroups
    )
    assert shape.n_workgroups == workgroups and active.size == n_active
