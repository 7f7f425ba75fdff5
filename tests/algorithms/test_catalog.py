"""The algorithm catalog's comparators, pinned row by row.

The serving spot-check and the differential matrix both judge results
with a row's one comparator, so a looser comparator would loosen both.
Each case below names the rows it pins; every row is pinned.
"""

import numpy as np
import pytest

from repro.algorithms.catalog import CATALOG

_SCORES = np.array([0.0, 1.5, 2.25, 1e3])


def _at(values, vertex, value):
    out = np.array(values, dtype=np.float64)
    out[vertex] = value
    return out


#: (rows, got, want, vertex of the first mismatch or None if they agree)
CASES = [
    # 1e-7 relative: beyond the distance tolerance, within the score one
    (("sssp", "delta_stepping"), _at(_SCORES, 2, 2.25 * (1 + 1e-7)), _SCORES, 2),
    (("bc", "pagerank"), _at(_SCORES, 2, 2.25 * (1 + 1e-7)), _SCORES, None),
    # 1e-10 absolute at zero: beyond atol 1e-12, within atol 1e-9
    (("sssp", "delta_stepping"), _at(_SCORES, 0, 1e-10), _SCORES, 0),
    (("bc", "pagerank"), _at(_SCORES, 0, 1e-10), _SCORES, None),
    # NaN against NaN: equal distances, mismatched scores
    (("sssp", "delta_stepping"), _at(_SCORES, 1, np.nan), _at(_SCORES, 1, np.nan), None),
    (("bc", "pagerank"), _at(_SCORES, 1, np.nan), _at(_SCORES, 1, np.nan), 1),
    # unreachable vertices agree
    (("sssp", "delta_stepping"), _at(_SCORES, 3, np.inf), _at(_SCORES, 3, np.inf), None),
    # CC: compared by component, not by label
    (("cc",), np.array([7, 7, 3, 3, 9]), np.array([0, 0, 2, 2, 4]), None),
    (("cc",), np.array([0, 0, 2, 0, 4]), np.array([0, 0, 2, 2, 4]), 3),
    # BFS depths: exact, with no tolerance at all
    (("bfs", "dobfs"), np.array([0, 1, 2, -1]), np.array([0, 1, 2, -1]), None),
    (("bfs", "dobfs"), _at([0, 1, 2, -1], 2, 2 + 1e-12), np.array([0, 1, 2, -1]), 2),
    (("bfs", "dobfs"), np.array([0, 1, 3, -1]), np.array([0, 1, 2, -1]), 2),
    (("bfs", "dobfs"), np.array([0, 1, 2, 1]), np.array([0, 1, 2, -1]), 3),
]


@pytest.mark.parametrize(
    "name, got, want, vertex",
    [(name, got, want, vertex) for rows, got, want, vertex in CASES for name in rows],
)
def test_comparator(name, got, want, vertex):
    miss = CATALOG[name].mismatch(got, want)
    if vertex is None:
        assert miss is None, miss
    else:
        assert miss is not None and miss[0] == vertex


def test_every_row_is_pinned():
    assert {name for rows, *_ in CASES for name in rows} == set(CATALOG)


def test_cc_mismatch_reports_canonical_labels():
    miss = CATALOG["cc"].mismatch(np.array([5, 5, 5]), np.array([1, 1, 2]))
    assert miss == (2, 2, 0)


@pytest.mark.parametrize("name", list(CATALOG))
def test_shape_mismatch(name):
    assert CATALOG[name].mismatch(np.zeros(3), np.zeros(4)) == (-1, "shape (4,)", "shape (3,)")
