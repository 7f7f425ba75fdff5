"""Grus-style boolmap frontier: one byte per element.

"The Grus framework opted for a boolmap method, linking each vertex to a
byte, but this increases memory use eightfold." (paper Section 4.1)

Included as a comparator layout: duplicate-free like a bitmap, but with 8x
the footprint and no cheap word-level skip of inactive regions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.frontier.base import Frontier, FrontierView
from repro.perfmodel.cache import unique_ints

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue


class BoolmapFrontier(Frontier):
    """Byte-per-element active map."""

    def __init__(self, queue: "Queue", n_elements: int, view: FrontierView = FrontierView.VERTEX):
        super().__init__(queue, n_elements, view)
        self.flags = queue.malloc_shared(
            (max(1, n_elements),), np.uint8, label="frontier.boolmap", fill=0
        )

    def insert(self, elements) -> None:
        ids = self._as_ids(elements)
        if ids.size == 0:
            return
        was_empty = self._cached_was_empty()
        self.flags[ids] = 1
        self._bump_epoch()
        if was_empty:
            # insert into a provably-empty map: the active set is the
            # sorted-unique batch — no flag scan needed for the next query
            self._prime_scan_cache(active=unique_ints(ids))

    def remove(self, elements) -> None:
        ids = self._as_ids(elements)
        self.flags[ids] = 0
        self._bump_epoch()

    def clear(self) -> None:
        self.flags[:] = 0
        self._bump_epoch()
        self._prime_scan_cache(active=np.empty(0, dtype=np.int64))

    # -- queries (memoized against the mutation epoch) ------------------ #
    def count(self) -> int:
        if not Frontier._memo_enabled:
            return int(self.flags.sum(dtype=np.int64))
        return int(self.active_elements().size)

    def active_elements(self) -> np.ndarray:
        return self._memoized("active")

    def _scan_compute(self, key: str):
        if key == "active":
            return np.nonzero(self.flags)[0].astype(np.int64)
        return super()._scan_compute(key)

    def contains(self, elements) -> np.ndarray:
        ids = self._as_ids(elements)
        return self.flags[ids] != 0

    @property
    def nbytes(self) -> int:
        return int(self.flags.nbytes)

    def _swap_payload(self, other: Frontier) -> None:
        self._check_swappable(other)
        assert isinstance(other, BoolmapFrontier)
        self.flags, other.flags = other.flags, self.flags
        self._swap_scan_state(other)

    def check_invariant(self) -> bool:
        """Flags are strictly 0/1 and padding bytes (n_elements=0) stay 0."""
        if not bool((self.flags <= 1).all()):
            return False
        # the 1-byte minimum allocation for an empty frontier must stay clear
        return self.n_elements > 0 or not bool(self.flags.any())
