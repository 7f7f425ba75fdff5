"""Frontier kernels: union, intersection, subtraction, swap.

"By portraying the frontier as a bitmap, the intersection, union and
subtraction operations are efficiently executed ... intersection through
bitwise AND, union via bitwise OR, and symmetric difference using bitwise
XOR.  This method takes advantage of parallelism by mapping each integer
in the bitmap to a GPU thread." (paper Section 4.1)

A note on the quote: the paper's third operator is the *symmetric*
difference (XOR), but the subtraction exposed here is the asymmetric
``a \\ b`` — bitwise AND-NOT (``a & ~b``) on the bitmap path — because
that is the set-difference the paper's own use cases (§3.1 "focused
analysis / data cleaning") call for.  The symmetric difference is the
composition ``(a \\ b) | (b \\ a)`` and costs exactly one extra
word-parallel pass; it is deliberately not a separate kernel.

For bitmap-family frontiers the operators are single vectorized word-wise
kernels; for vector/boolmap layouts they fall back to set semantics on the
active-element arrays (costed accordingly — one of the reasons bitmap
frontiers win).  All three operands must be bound to the same queue: the
kernel is submitted — and its cost charged — to ``a.queue``, so a
cross-device mix would silently bill the wrong device.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import FrontierError
from repro.frontier import _bitops
from repro.frontier.base import Frontier
from repro.frontier.bitmap import BitmapFrontier
from repro.perfmodel.cost import KernelWorkload, null_workload
from repro.sycl.ndrange import range_launch

#: address-space regions for the cost model (distinct buffers never alias)
_REGION_A = 10
_REGION_B = 11
_REGION_OUT = 12  # +k for the output's layer k


def swap(a: Frontier, b: Frontier) -> None:
    """Exchange two frontiers' payloads (Listing 1 line 18).

    O(1): only the backing buffers change hands, matching the C++
    ``frontier::swap``.
    """
    a._swap_payload(b)


def _check_compatible(a: Frontier, b: Frontier, out: Frontier) -> None:
    for f in (b, out):
        if f.n_elements != a.n_elements:
            raise FrontierError(
                f"frontier size mismatch: {a.n_elements} vs {f.n_elements}"
            )
        if f.queue is not a.queue:
            raise FrontierError(
                "set-op operands bound to different queues/devices "
                f"({a.queue.device.name} vs {f.queue.device.name}): the kernel "
                f"would charge all cost to {a.queue.device.name}"
            )


def _bitwise_op(
    a: BitmapFrontier, b: BitmapFrontier, out: BitmapFrontier, op: Callable, name: str
) -> None:
    """Word-parallel bitmap kernel; one workitem per word."""
    if not (a.bits == b.bits == out.bits):
        raise FrontierError("bitmap word widths differ between operands")
    result = op(a.words, b.words)
    out.clear()
    out.words[:] = result
    # each summary layer gets the bits of the nonzero words below it; the
    # set words are remembered so the profiling workload below streams
    # them too — layer 0 alone undercounts exactly when the 2LB and the
    # tree pay for their summary update
    summaries = []
    below = result
    for layer in out.layers[1:]:
        nz = np.nonzero(below)[0]
        _bitops.set_bits(layer, nz, out.bits)
        summaries.append(nz)
        below = layer
    # the writes above bypass insert(): invalidate out's memoized scans
    out._bump_epoch()

    queue = a.queue
    if not queue.enable_profiling:
        queue.submit(null_workload(f"frontier.{name}"))
        return
    n_words = a.words.size
    wl = KernelWorkload(
        name=f"frontier.{name}",
        geometry=range_launch(queue.device.spec, n_words),
        active_lanes=n_words,
        instructions_per_lane=4.0,
    )
    word_bytes = a.words.dtype.itemsize
    idx = np.arange(n_words)
    wl.add_stream(idx, word_bytes, _REGION_A, label="lhs.words")
    wl.add_stream(idx, word_bytes, _REGION_B, label="rhs.words")
    wl.add_stream(idx, word_bytes, _REGION_OUT, is_write=True, label="out.words")
    for k, nz in enumerate(summaries, start=1):
        wl.add_stream(nz // out.bits, word_bytes, _REGION_OUT + k, is_write=True, label=f"out.layer{k}")
    queue.submit(wl)


def _set_fallback(a: Frontier, b: Frontier, out: Frontier, setop: Callable, name: str) -> None:
    """Generic path for non-bitmap layouts: materialize element arrays."""
    ea, eb = a.active_elements(), b.active_elements()
    result = setop(ea, eb)
    out.clear()
    out.insert(result)

    queue = a.queue
    if not queue.enable_profiling:
        queue.submit(null_workload(f"frontier.{name}.generic"))
        return
    total = ea.size + eb.size
    wl = KernelWorkload(
        name=f"frontier.{name}.generic",
        geometry=range_launch(queue.device.spec, total),
        active_lanes=total,
        instructions_per_lane=16.0,  # sort/merge path, not word-parallel
        serial_ops=total,
    )
    # each operand at its layout's storage: the words of a bitmap (its
    # elements come out of / go into the word scan), a boolmap's byte
    # flags, a vector's slots
    wl.add_stream(*a.storage(ea), _REGION_A, label="lhs.elems")
    wl.add_stream(*b.storage(eb), _REGION_B, label="rhs.elems")
    wl.add_stream(*out.storage(result), _REGION_OUT, is_write=True, label="out.elems")
    queue.submit(wl)


def _dispatch(a: Frontier, b: Frontier, out: Frontier, bitop, setop, name: str) -> Frontier:
    _check_compatible(a, b, out)
    if all(isinstance(f, BitmapFrontier) for f in (a, b, out)):
        _bitwise_op(a, b, out, bitop, name)
    else:
        _set_fallback(a, b, out, setop, name)
    return out


def frontier_union(a: Frontier, b: Frontier, out: Frontier) -> Frontier:
    """out = a | b — e.g. merging node sets in graph ML pipelines."""
    return _dispatch(a, b, out, np.bitwise_or, np.union1d, "union")


def frontier_intersection(a: Frontier, b: Frontier, out: Frontier) -> Frontier:
    """out = a & b — shared membership of two active sets."""
    return _dispatch(a, b, out, np.bitwise_and, np.intersect1d, "intersection")


def frontier_subtraction(a: Frontier, b: Frontier, out: Frontier) -> Frontier:
    """out = a \\ b — focused analysis / data cleaning (paper §3.1)."""
    return _dispatch(
        a,
        b,
        out,
        lambda x, y: np.bitwise_and(x, np.bitwise_not(y)),
        np.setdiff1d,
        "subtraction",
    )
