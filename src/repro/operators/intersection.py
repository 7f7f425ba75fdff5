"""Segmented intersection (paper Figure 3).

Computes the **common neighborhood** of two frontiers: for the active
vertices of ``a`` and ``b``, which vertices are out-neighbors of both
sets?  The bitmap layout makes this a two-stage kernel:

1. mark each set's neighborhood into a scratch bitmap (an advance without
   functor);
2. AND the two bitmaps word-parallel (the segmented reduction of Fig. 3).

Used by triangle counting and by graph-ML neighborhood features.
"""

from __future__ import annotations

import numpy as np

from repro.frontier.base import Frontier
from repro.frontier.bitmap import BitmapFrontier
from repro.frontier.ops import frontier_intersection
from repro.operators import advance


def segmented_intersection(graph, a: Frontier, b: Frontier, out: Frontier) -> Frontier:
    """out = N(a) ∩ N(b) — the shared out-neighborhood of two frontiers.

    ``out`` should be a bitmap frontier of the graph's vertex count: the
    two scratch neighborhoods are bitmaps of its word width and depth, so
    the AND runs word-parallel.  Any other ``out`` gets flat scratch
    bitmaps of the device's width, and the set-op's generic path.
    """
    with graph.queue.span("intersection.segmented"):
        shape = {"bits": out.bits, "n_layers": out.n_layers} if isinstance(out, BitmapFrontier) else {}
        na = BitmapFrontier(graph.queue, a.n_elements, a.view, **shape)
        nb = BitmapFrontier(graph.queue, b.n_elements, b.view, **shape)

        accept_all = lambda src, dst, eid, w: np.ones(src.size, dtype=bool)  # noqa: E731
        advance.frontier(graph, a, na, accept_all)
        advance.frontier(graph, b, nb, accept_all)
        frontier_intersection(na, nb, out)
        return out
