"""Functor protocol and adapters.

The paper's primitives take user C++ lambdas:

* Advance functor: ``(src, dst, edge_id, weight) -> bool``
* Filter functor:  ``(id) -> bool``
* Compute functor: ``(id) -> None``

Our operators call functors with **NumPy arrays** (one element per edge or
vertex) and expect array results — the vectorized-functor substitution of
DESIGN.md §2.  :func:`scalar_functor` wraps a per-element Python callable
into that protocol so examples can be written exactly like Listing 1 when
readability matters more than speed.

Advance functors get their four arrays **read-only**, as a C++ lambda gets
its edge by value: they write into their own state (``dist[dst] = ...``),
never into ``src``, ``dst``, ``edge_id`` or ``weight``.  An advance from
every vertex of a :class:`~repro.graph.csr.CSRGraph` passes the arrays
the graph keeps for every such advance, which are read-only, so a write
raises ``ValueError`` instead of corrupting later advances.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def scalar_functor(fn: Callable) -> Callable:
    """Lift a scalar functor to the vectorized protocol.

    Works for advance functors (4 array args -> bool array), filter
    functors (1 array arg -> bool array) and compute functors (1 array
    arg, in-place side effects).
    """

    def vectorized(*arrays):
        if not arrays or np.asarray(arrays[0]).size == 0:
            return np.empty(0, dtype=bool)
        columns = [np.asarray(a) for a in arrays]
        out = [fn(*row) for row in zip(*columns)]
        if out and out[0] is None:
            return None
        return np.asarray(out, dtype=bool)

    vectorized.__name__ = getattr(fn, "__name__", "scalar_functor")
    return vectorized


def as_mask(result, size: int, what: str) -> np.ndarray:
    """Validate a functor's return value into a boolean mask of ``size``."""
    if result is None:
        raise TypeError(f"{what} functor must return a boolean mask, got None")
    if isinstance(result, (bool, np.bool_)):
        return np.full(size, bool(result))
    mask = np.asarray(result)
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    if mask.shape != (size,):
        raise TypeError(
            f"{what} functor returned shape {mask.shape}, expected ({size},)"
        )
    return mask
