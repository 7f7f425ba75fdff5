"""Cache behaviour models.

Two models live here:

* :class:`CacheSim` — an exact set-associative LRU simulator.  Pure Python,
  O(accesses); used in unit/property tests and for small streams.
* :func:`estimate_cache_hits` — a vectorized stack-distance approximation.
  For an address stream it computes compulsory misses (unique lines) and
  scales the remaining re-references by how much of the working set fits
  in the cache.

The approximation is validated against the exact simulator in
``tests/perfmodel/test_cache.py``: both agree exactly when the working set
fits, and the approximation is within a tolerance band otherwise.  The
cost model (:meth:`~repro.perfmodel.cost.CostModel.charge_many`) prices
its streams with the same counts — :func:`count_distinct` and its
batched form :func:`count_distinct_segments`, :func:`count_adjacent` —
and the one hit formula :func:`lru_hits`, so those tests validate what
the model runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss counts for one simulated access stream."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CacheSim:
    """Exact set-associative LRU cache simulator.

    Parameters mirror the per-CU L1 geometry of
    :class:`~repro.sycl.device.DeviceSpec`.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int, ways: int):
        if capacity_bytes < line_bytes * ways:
            raise ValueError("cache must hold at least one set")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(1, capacity_bytes // (line_bytes * ways))
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.accesses = 0

    def access(self, byte_address: int) -> bool:
        """Touch one byte address; return True on hit."""
        line = byte_address // self.line_bytes
        s = self._sets[line % self.num_sets]
        self.accesses += 1
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = True
        return False

    def access_many(self, byte_addresses: Iterable[int]) -> CacheStats:
        before_h, before_a = self.hits, self.accesses
        for a in byte_addresses:
            self.access(int(a))
        return CacheStats(self.accesses - before_a, self.hits - before_h)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(self.accesses, self.hits)


def line_ids(byte_addresses: np.ndarray, line_bytes: int) -> np.ndarray:
    """Map byte addresses to cache-line ids."""
    return np.asarray(byte_addresses, dtype=np.int64) // line_bytes


#: :func:`count_distinct` marks lines in a bitmap over the stream's span
#: while the span is at most ``MARK_SPAN_PER_ACCESS`` lines per access
#: plus ``MARK_SPAN_BASE``; past that a sort is cheaper than clearing and
#: scanning the mostly empty bitmap.  Measured with NumPy 2.4: marking a
#: 49-access stream over a 12k-line span, or a 100k-access stream over a
#: 1.6M-line span, still takes less time than sorting it.
MARK_SPAN_PER_ACCESS = 16
MARK_SPAN_BASE = 1 << 14


def count_distinct(lines: np.ndarray, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """Number of distinct values in a non-empty ``lines``, all of which lie
    in ``[lo, hi]`` (by default its own minimum and maximum).

    Linear in ``len(lines) + hi - lo`` with a mark array over the span;
    a span far wider than the stream is counted by sorting instead.
    """
    if lo is None:
        lo, hi = int(lines.min()), int(lines.max())
    span = hi - lo + 1
    if lines.dtype == np.int64 and span <= MARK_SPAN_PER_ACCESS * lines.size + MARK_SPAN_BASE:
        mark = np.zeros(span, dtype=np.bool_)
        mark[lines - lo] = True
        return int(np.count_nonzero(mark))
    ordered = np.sort(lines, axis=None)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def unique_ints(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` of a 1-D integer array: its distinct values,
    sorted, in its dtype.

    NumPy 2 answers ``np.unique`` from a hash table, which takes several
    times longer than a sort plus an adjacent-difference mask.
    """
    return unique_sorted(np.sort(ids))


def unique_sorted(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-D array, in one adjacent-difference
    pass (no sort)."""
    keep = np.empty(ordered.size, dtype=np.bool_)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def count_adjacent(lines: np.ndarray) -> int:
    """Accesses to the same line as their predecessor (reuse distance 0)."""
    return int(np.count_nonzero(lines[1:] == lines[:-1]))


def count_distinct_segments(
    values: np.ndarray, segment: np.ndarray, lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Number of distinct values in each of several segments at once.

    ``values[i]`` belongs to segment ``segment[i]`` and lies in that
    segment's ``[lo, hi]``; ``sizes`` counts each segment's values (at
    least one).  Each segment is offset into its own range of one key
    space.  Segments spanning at most ``MARK_SPAN_PER_ACCESS`` values per
    value are counted by marking their keys in one bitmap over their
    concatenated spans; the sparser ones by one sort of their keys, which
    leaves each segment's keys contiguous and in segment order.
    """
    span = hi - lo + 1
    counts = np.empty(sizes.size, dtype=np.int64)
    dense = span <= MARK_SPAN_PER_ACCESS * sizes
    for marked in (True, False):
        chosen = dense if marked else ~dense
        if not chosen.any():
            continue
        if chosen.all():
            keys, seg = values, segment
        else:
            picked = chosen[segment]
            keys, seg = values[picked], (np.cumsum(chosen) - 1)[segment[picked]]
        spans = span[chosen]
        offsets = np.cumsum(spans) - spans
        keys = keys + (offsets - lo[chosen])[seg]
        if marked:
            mark = np.zeros(int(offsets[-1] + spans[-1]), dtype=np.bool_)
            mark[keys] = True
            counts[chosen] = np.add.reduceat(mark, offsets, dtype=np.int64)
        else:
            keys.sort()
            first = np.empty(keys.size, dtype=np.bool_)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            n = sizes[chosen]
            counts[chosen] = np.add.reduceat(first, np.cumsum(n) - n, dtype=np.int64)
    return counts


def lru_hits(accesses, distinct, adjacent, capacity_lines):
    """The stack-distance hit count of :func:`estimate_cache_hits`, from a
    non-empty stream's access, distinct-line and adjacent-repeat counts.

    Elementwise when the counts are arrays, where ``np.rint`` rounds half
    to even like ``round``.
    """
    if isinstance(accesses, np.ndarray):
        potential = np.maximum(accesses - distinct - adjacent, 0)
        fit = np.minimum(1.0, capacity_lines / distinct)
        hits = adjacent + np.rint(potential * fit).astype(np.int64)
        return np.minimum(hits, accesses - distinct)
    potential = accesses - distinct - adjacent
    fit = min(1.0, capacity_lines / distinct)
    hits = adjacent + int(round(max(0, potential) * fit))
    return min(hits, accesses - distinct)


def estimate_cache_hits(
    lines: np.ndarray,
    capacity_bytes: int,
    line_bytes: int,
) -> CacheStats:
    """Stack-distance approximation of LRU hit count for a line-id stream.

    Ordering-aware in the cheapest useful way:

    * an access to the **same line as its predecessor** (reuse distance 0 —
      sequential streaming through an array) hits in any cache with at
      least one line;
    * every distinct line is one compulsory miss;
    * the remaining re-references hit with probability
      ``min(1, capacity_lines / working_set_lines)`` — all of them when
      the working set fits, decaying smoothly as it overflows.
    """
    lines = np.asarray(lines)
    accesses = int(lines.size)
    if accesses == 0:
        return CacheStats(0, 0)
    distinct = count_distinct(lines)
    capacity_lines = max(1, capacity_bytes // line_bytes)
    return CacheStats(accesses, lru_hits(accesses, distinct, count_adjacent(lines), capacity_lines))
