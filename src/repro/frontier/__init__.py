"""Frontier data layouts (paper Section 4).

The frontier is "the set of active vertices or edges during a graph
algorithm iteration".  Three classes implement five layout names:

* :class:`~repro.frontier.bitmap.BitmapFrontier` — one bit per element
  (Section 4.1) under ``n_layers - 1`` summary layers, each with one bit
  per word of the layer below.  ``make_frontier`` names it ``bitmap`` at
  one layer; ``2lb`` at two, the paper's primary contribution (Section
  4.3): advance kernels skip the words the summary marks empty; and
  ``tree`` at ``n_layers`` (Section 4.4's bitmap-tree, two by default).
* :class:`~repro.frontier.vector.VectorFrontier` — the Gunrock-style
  dynamic vector with local-memory staging and duplicate accumulation
  (Section 4, intro); used by the baselines.
* :class:`~repro.frontier.boolmap.BoolmapFrontier` — the Grus-style
  byte-per-vertex map (8x the memory of a bitmap; Section 4.1).

All layouts implement the :class:`~repro.frontier.base.Frontier` interface
so operators and algorithms are layout-agnostic, exactly like the C++
framework's ``frontier_view_t`` templates.
"""

from repro.frontier.base import (
    BITMAP_LAYOUTS,
    Frontier,
    FrontierView,
    layout_bits_kwargs,
    make_frontier,
    scan_memoization,
)
from repro.frontier.bitmap import BitmapFrontier
from repro.frontier.boolmap import BoolmapFrontier
from repro.frontier.ops import (
    frontier_intersection,
    frontier_subtraction,
    frontier_union,
    swap,
)
from repro.frontier.vector import VectorFrontier

__all__ = [
    "BITMAP_LAYOUTS",
    "Frontier",
    "FrontierView",
    "layout_bits_kwargs",
    "make_frontier",
    "scan_memoization",
    "BitmapFrontier",
    "VectorFrontier",
    "BoolmapFrontier",
    "frontier_union",
    "frontier_intersection",
    "frontier_subtraction",
    "swap",
]
