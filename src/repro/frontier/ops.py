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
from repro.frontier.boolmap import BoolmapFrontier
from repro.frontier.multi_layer_bitmap import MultiLayerBitmapFrontier
from repro.frontier.two_layer_bitmap import TwoLayerBitmapFrontier
from repro.perfmodel.cache import unique_ints
from repro.perfmodel.cost import KernelWorkload, null_workload
from repro.sycl.ndrange import Range
from repro.types import vertex_t

#: address-space regions for the cost model (distinct buffers never alias)
_REGION_A = 10
_REGION_B = 11
_REGION_OUT = 12
_REGION_OUT_SUMMARY = 13  # +k for the k-th summary layer above layer 0


def swap(a: Frontier, b: Frontier) -> None:
    """Exchange two frontiers' payloads (Listing 1 line 18).

    O(1): only the backing buffers change hands, matching the C++
    ``frontier::swap``.
    """
    a._swap_payload(b)


def _is_bitmap_family(f: Frontier) -> bool:
    return isinstance(f, (BitmapFrontier, TwoLayerBitmapFrontier, MultiLayerBitmapFrontier))


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


def _bitwise_op(a: Frontier, b: Frontier, out: Frontier, op: Callable, name: str) -> None:
    """Word-parallel bitmap kernel; one workitem per word."""
    if not (a.bits == b.bits == out.bits):  # type: ignore[attr-defined]
        raise FrontierError("bitmap word widths differ between operands")
    result = op(a.words, b.words)  # type: ignore[attr-defined]
    out.clear()
    out.words[:] = result  # type: ignore[attr-defined]
    # summary-layer writes, remembered as (word indices, word bytes, label)
    # so the profiling workload below streams them too — layer 0 alone
    # undercounts exactly when the 2LB/MLB layouts pay for their L2 update
    summary_writes = []
    if isinstance(out, TwoLayerBitmapFrontier):
        nz = np.nonzero(result)[0]
        _bitops.set_bits(out.words_l2, nz, out.bits)
        summary_writes.append((nz // out.bits, out.words_l2.dtype.itemsize, "out.words_l2"))
    elif isinstance(out, MultiLayerBitmapFrontier):
        ids = np.nonzero(result)[0]  # nonzero layer-0 word indices
        for depth, layer in enumerate(out.layers[1:], start=1):
            _bitops.set_bits(layer, ids, out.bits)
            summary_writes.append((ids // out.bits, layer.dtype.itemsize, f"out.layer{depth}"))
            ids = unique_ints(ids // out.bits)
    # the writes above bypass insert(): invalidate out's memoized scans
    out._bump_epoch()

    queue = a.queue
    if not queue.enable_profiling:
        queue.submit(null_workload(f"frontier.{name}"))
        return
    n_words = a.words.size  # type: ignore[attr-defined]
    geom = Range(n_words).resolve(
        queue.device.spec.max_workgroup_size // 4, queue.device.spec.preferred_subgroup_size
    )
    wl = KernelWorkload(
        name=f"frontier.{name}",
        geometry=geom,
        active_lanes=n_words,
        instructions_per_lane=4.0,
    )
    word_bytes = a.words.dtype.itemsize  # type: ignore[attr-defined]
    idx = np.arange(n_words)
    wl.add_stream(idx, word_bytes, _REGION_A, label="lhs.words")
    wl.add_stream(idx, word_bytes, _REGION_B, label="rhs.words")
    wl.add_stream(idx, word_bytes, _REGION_OUT, is_write=True, label="out.words")
    for k, (word_idx, item_bytes, label) in enumerate(summary_writes):
        wl.add_stream(word_idx, item_bytes, _REGION_OUT_SUMMARY + k, is_write=True, label=label)
    queue.submit(wl)


def _elem_stream(wl, f: Frontier, ids: np.ndarray, region: int, label: str, is_write: bool = False) -> None:
    """Charge one operand of the generic set-op with its layout's real
    storage width (PR 8 fixed the same bug class for ghost wire bytes).

    Bitmap-family operands are touched word-wise (active elements come
    out of / go into the word scan), boolmap layouts move 1-byte flags,
    and vector layouts move contiguous ``vertex_t``-wide slots.
    """
    bits = getattr(f, "bits", None)
    if bits is not None:
        wl.add_stream(ids // bits, f.words.dtype.itemsize, region, is_write=is_write, label=label)
    elif isinstance(f, BoolmapFrontier):
        wl.add_stream(ids, 1, region, is_write=is_write, label=label)
    else:
        wl.add_stream(
            np.arange(ids.size), np.dtype(vertex_t).itemsize, region,
            is_write=is_write, label=label,
        )


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
    geom = Range(max(1, total)).resolve(
        queue.device.spec.max_workgroup_size // 4, queue.device.spec.preferred_subgroup_size
    )
    wl = KernelWorkload(
        name=f"frontier.{name}.generic",
        geometry=geom,
        active_lanes=total,
        instructions_per_lane=16.0,  # sort/merge path, not word-parallel
        serial_ops=total,
    )
    _elem_stream(wl, a, ea, _REGION_A, "lhs.elems")
    _elem_stream(wl, b, eb, _REGION_B, "rhs.elems")
    _elem_stream(wl, out, result, _REGION_OUT, "out.elems", is_write=True)
    queue.submit(wl)


def _dispatch(a: Frontier, b: Frontier, out: Frontier, bitop, setop, name: str) -> Frontier:
    _check_compatible(a, b, out)
    if _is_bitmap_family(a) and _is_bitmap_family(b) and _is_bitmap_family(out):
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
