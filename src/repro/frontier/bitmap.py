"""Single-layer bitmap frontier (paper Section 4.1).

One bit per element: word index ``id / b``, bit ``id % b``.  Inserts are
naturally duplicate-free — the property that lets SYgraph skip the
duplicate-removal post-processing pass that vector frontiers require.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.frontier import _bitops
from repro.frontier.base import Frontier, FrontierView, distinct_ids
from repro.perfmodel.cache import unique_sorted
from repro.types import bitmap_dtype

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue

#: shared read-only empty id array for primed empty scans
_EMPTY_IDS = np.empty(0, dtype=np.int64)


class BitmapFrontier(Frontier):
    """Array-of-words bitmap over ``n_elements`` bits.

    Parameters
    ----------
    bits:
        Word width (32 or 64).  Defaults to the device inspector's choice,
        which matches the subgroup width (the *MSI* optimization): 32 on
        NVIDIA/Intel, 64 on AMD.
    """

    def __init__(
        self,
        queue: "Queue",
        n_elements: int,
        view: FrontierView = FrontierView.VERTEX,
        bits: Optional[int] = None,
    ):
        super().__init__(queue, n_elements, view)
        self.bits = bits or queue.inspect().bitmap_bits
        self.n_words = _bitops.words_for(max(1, n_elements), self.bits)
        self.words = queue.malloc_shared(
            (self.n_words,), bitmap_dtype(self.bits), label="frontier.bitmap", fill=0
        )

    # -- mutation ------------------------------------------------------- #
    def insert(self, elements) -> None:
        ids = distinct_ids(elements, self.n_elements)
        if ids.size == 0:
            return
        was_empty = self._cached_was_empty()
        _bitops.set_bits(self.words, ids, self.bits)
        self._bump_epoch()
        if was_empty:
            # insert into a provably-empty frontier: the scans are known by
            # construction, no bitmap pass needed for the next query
            self._prime_scan_cache(active=ids, nonzero_words=unique_sorted(ids // self.bits))

    def remove(self, elements) -> None:
        ids = self._validated(elements)
        _bitops.clear_bits(self.words, ids, self.bits)
        self._bump_epoch()

    def clear(self) -> None:
        self.words[:] = 0
        self._bump_epoch()
        self._prime_scan_cache(active=_EMPTY_IDS, nonzero_words=_EMPTY_IDS)

    # -- queries (memoized against the mutation epoch) ------------------ #
    def count(self) -> int:
        if not Frontier._memo_enabled:
            return _bitops.count_set_bits(self.words)
        # shares the expansion with active_elements(): one bitmap scan
        # serves the driver's empty()/count() and the advance
        return int(self.active_elements().size)

    def active_elements(self) -> np.ndarray:
        return self._memoized("active")

    def _scan_compute(self, key: str):
        if key == "active":
            return _bitops.expand_words(self.words, self.bits, self.n_elements)
        if key == "nonzero_words":
            return np.nonzero(self.words)[0].astype(np.int64)
        return super()._scan_compute(key)

    def contains(self, elements) -> np.ndarray:
        ids = self._validated(elements)
        return _bitops.test_bits(self.words, ids, self.bits)

    def nonzero_words(self) -> np.ndarray:
        """Indices of words with at least one set bit.

        The plain bitmap finds them by scanning *every* word — the cost the
        Two-Layer layout exists to avoid (Figure 5a).
        """
        return self._memoized("nonzero_words")

    # -- memory --------------------------------------------------------- #
    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    # -- plumbing -------------------------------------------------------- #
    def _swap_payload(self, other: Frontier) -> None:
        self._check_swappable(other)
        assert isinstance(other, BitmapFrontier)
        self.words, other.words = other.words, self.words
        self._swap_scan_state(other)

    def check_invariant(self) -> bool:
        """No bit set beyond ``n_elements`` (the tail of the last word)."""
        ids = _bitops.expand_words(self.words, self.bits, self.n_words * self.bits)
        return ids.size == 0 or int(ids.max()) < self.n_elements
