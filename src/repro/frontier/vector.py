"""Gunrock-style dynamic vector frontier.

Discovered elements are appended to a vector.  The real GPU implementation
stages appends in local shared memory, prefix-sums local tails across
thread blocks, and coalesces into global memory (paper Section 4, first
paragraph); when the vector fills it must be reallocated, and because the
same vertex can be discovered via several edges the vector accumulates
**duplicates** that a post-processing pass must remove.

This class models all three behaviours faithfully — geometric
reallocation through the memory manager (visible in Figure 9's memory
traces), duplicate accumulation, and an explicit :meth:`deduplicate`
post-pass — because they are exactly what the paper charges Gunrock for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.frontier.base import Frontier, FrontierView
from repro.perfmodel.cache import unique_ints
from repro.types import vertex_t

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue


class VectorFrontier(Frontier):
    """Dynamic vector of (possibly duplicated) element ids.

    Parameters
    ----------
    initial_capacity:
        Starting slots.  Gunrock-style frontiers over-allocate; the
        default of ``max(1024, n/8)`` mimics that.
    growth:
        Geometric growth factor on overflow.
    """

    def __init__(
        self,
        queue: "Queue",
        n_elements: int,
        view: FrontierView = FrontierView.VERTEX,
        initial_capacity: int = 0,
        growth: float = 2.0,
    ):
        super().__init__(queue, n_elements, view)
        self.growth = growth
        cap = initial_capacity or max(1024, n_elements // 8)
        self._data = queue.malloc_shared((cap,), vertex_t, label="frontier.vector")
        self._size = 0
        self.reallocations = 0

    @property
    def capacity(self) -> int:
        return int(self._data.size)

    @property
    def size_with_duplicates(self) -> int:
        """Raw vector length, duplicates included."""
        return self._size

    # -- mutation ------------------------------------------------------- #
    def insert(self, elements) -> None:
        ids = self._validated(elements)
        if ids.size == 0:
            return
        was_empty = self._cached_was_empty()
        self._ensure_capacity(self._size + ids.size)
        self._data[self._size : self._size + ids.size] = ids.astype(vertex_t)
        self._size += int(ids.size)
        self._bump_epoch()
        if was_empty:
            # appending to a provably-empty vector: the deduplicated view is
            # just the sorted-unique batch — no rescan of the vector needed
            self._prime_scan_cache(active=unique_ints(ids))

    def remove(self, elements) -> None:
        ids = self._validated(elements)
        if ids.size == 0 or self._size == 0:
            return
        keep = ~np.isin(self._data[: self._size], ids.astype(vertex_t))
        kept = self._data[: self._size][keep]
        self._data[: kept.size] = kept
        self._size = int(kept.size)
        self._bump_epoch()

    def clear(self) -> None:
        self._size = 0
        self._bump_epoch()
        self._prime_scan_cache(active=np.empty(0, dtype=np.int64))

    def deduplicate(self) -> int:
        """Post-processing pass removing duplicates; returns removed count.

        Keeps **first-occurrence order** like a real GPU filter/compact
        pass (it claims a visited flag and scans survivors — it does not
        sort).  The resulting scrambled vertex order is why vector-frontier
        frameworks see scattered row_ptr/value accesses in the *next*
        advance, while bitmap expansion always yields sorted vertices.
        This is the pass SYgraph's bitmap layouts make unnecessary.
        """
        if self._size == 0:
            return 0
        _, first_idx = np.unique(self._data[: self._size], return_index=True)
        keep = np.sort(first_idx)  # preserve encounter order
        removed = self._size - keep.size
        self._data[: keep.size] = self._data[: self._size][keep]
        self._size = int(keep.size)
        # the active *set* is unchanged, but raw contents/order moved —
        # bump conservatively so no memoized view can go stale
        self._bump_epoch()
        return int(removed)

    # -- queries (memoized against the mutation epoch) ------------------ #
    def count(self) -> int:
        # count requires the dedup either way; share it with the advance
        return int(self.active_elements().size)

    def active_elements(self) -> np.ndarray:
        return self._memoized("active")

    def _scan_compute(self, key: str):
        if key == "active":
            if self._size == 0:
                return np.empty(0, dtype=np.int64)
            return unique_ints(self._data[: self._size]).astype(np.int64)
        return super()._scan_compute(key)

    def raw_elements(self) -> np.ndarray:
        """The vector contents *with* duplicates, in insertion order."""
        return self._data[: self._size].astype(np.int64)

    def storage(self, ids: np.ndarray):
        """Contiguous ``vertex_t`` slots, in storage order."""
        return np.arange(ids.size), self._data.dtype.itemsize

    def contains(self, elements) -> np.ndarray:
        ids = self._validated(elements)
        return np.isin(ids.astype(vertex_t), self._data[: self._size])

    # -- memory --------------------------------------------------------- #
    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_cap = self.capacity
        while new_cap < needed:
            new_cap = int(new_cap * self.growth) + 1
        new_data = self.queue.malloc_shared((new_cap,), vertex_t, label="frontier.vector")
        new_data[: self._size] = self._data[: self._size]
        self.queue.free(self._data)
        self._data = new_data
        self.reallocations += 1

    # -- plumbing -------------------------------------------------------- #
    def _swap_payload(self, other: Frontier) -> None:
        self._check_swappable(other)
        assert isinstance(other, VectorFrontier)
        self._data, other._data = other._data, self._data
        self._size, other._size = other._size, self._size
        self._swap_scan_state(other)

    def check_invariant(self) -> bool:
        """Size within capacity and every stored id within [0, n_elements)."""
        if not (0 <= self._size <= self.capacity):
            return False
        if self._size == 0:
            return True
        live = self._data[: self._size].astype(np.int64)
        return bool(live.min() >= 0 and live.max() < self.n_elements)
