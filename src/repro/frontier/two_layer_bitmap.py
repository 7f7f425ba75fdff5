"""Two-Layer Bitmap (2LB) frontier — the paper's primary contribution
(Section 4.3, Figure 6).

Layer 1 is an ordinary bitmap (one bit per element).  Layer 2 has one bit
per *layer-1 word*: a layer-2 bit is 1 iff its word has any bit set.  The
invariant maintained by every mutation is::

    layer2_bit(i) == (layer1_word(i) != 0)

Before each advance, :meth:`compute_offsets` scans layer 2 and emits the
indices of nonzero layer-1 words into a global offsets buffer; advance
workgroups then iterate over that buffer instead of the whole bitmap,
never touching all-zero words (fixing Figure 5a's waste).
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


class TwoLayerBitmapFrontier(Frontier):
    """2LB frontier: primary bitmap + secondary nonzero-word bitmap.

    Sizes follow the paper: layer 1 has ``ceil(|V| / b)`` words; layer 2
    has ``ceil(|V| / b^2)`` words (one bit per layer-1 word).
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
        dtype = bitmap_dtype(self.bits)
        self.n_words = _bitops.words_for(max(1, n_elements), self.bits)
        self.n_words_l2 = _bitops.words_for(self.n_words, self.bits)
        self.words = queue.malloc_shared(
            (self.n_words,), dtype, label="frontier.2lb.l1", fill=0
        )
        self.words_l2 = queue.malloc_shared(
            (self.n_words_l2,), dtype, label="frontier.2lb.l2", fill=0
        )
        # Global offsets buffer the pre-advance pass fills (worst case: all
        # words nonzero). Allocated once, reused every iteration — this is
        # why 2LB needs no per-iteration reallocation.
        self.offsets = queue.malloc_shared(
            (self.n_words,), np.int64, label="frontier.2lb.offsets", fill=0
        )
        self._n_offsets = 0
        #: epoch at which the offsets buffer was last (re)filled
        self._offsets_epoch = -1

    # -- mutation ------------------------------------------------------- #
    def insert(self, elements) -> None:
        ids = distinct_ids(elements, self.n_elements)
        if ids.size == 0:
            return
        was_empty = self._cached_was_empty()
        _bitops.set_bits(self.words, ids, self.bits)
        # "When adding a vertex, the corresponding bit in the second layer
        # is calculated and set to 1 if it's not already."  The ids are
        # sorted, so their words are too: one pass drops the repeats.
        touched_words = unique_sorted(ids // self.bits)
        _bitops.set_bits(self.words_l2, touched_words, self.bits)
        self._bump_epoch()
        if was_empty:
            # inserting into a provably-empty frontier determines the scans
            # by construction: no bitmap pass needed to answer the next query
            self._prime_scan_cache(active=ids, nonzero_words=touched_words)

    def remove(self, elements) -> None:
        ids = self._validated(elements)
        if ids.size == 0:
            return
        _bitops.clear_bits(self.words, ids, self.bits)
        # "For vertex removal, if the integer becomes 0, the second layer
        # bit is reset to 0."
        touched = np.unique(ids // self.bits)
        now_zero = touched[self.words[touched] == 0]
        _bitops.clear_bits(self.words_l2, now_zero, self.bits)
        self._bump_epoch()

    def clear(self) -> None:
        self.words[:] = 0
        self.words_l2[:] = 0
        self._n_offsets = 0
        self._bump_epoch()
        self._prime_scan_cache(active=_EMPTY_IDS, nonzero_words=_EMPTY_IDS)
        if Frontier._memo_enabled:
            self._offsets_epoch = self._epoch  # offsets buffer trivially valid

    # -- queries (memoized against the mutation epoch) ------------------ #
    def count(self) -> int:
        if not Frontier._memo_enabled:
            return _bitops.count_set_bits(self.words)
        # derived from the shared expansion: the driver's empty()/count()
        # primes the same scan the advance reuses in the same iteration
        return int(self.active_elements().size)

    def active_elements(self) -> np.ndarray:
        return self._memoized("active")

    def _scan_compute(self, key: str):
        if key == "active":
            return _bitops.expand_selected_words(
                self.words, self.nonzero_words(), self.bits, self.n_elements
            )
        if key == "nonzero_words":
            return self._scan_nonzero_words()
        return super()._scan_compute(key)

    def contains(self, elements) -> np.ndarray:
        ids = self._validated(elements)
        return _bitops.test_bits(self.words, ids, self.bits)

    def nonzero_words(self) -> np.ndarray:
        """Nonzero layer-1 word indices, found *via layer 2*.

        Only ``ceil(|V|/b^2)`` layer-2 words are scanned; layer-1 words
        whose layer-2 bit is 0 are never touched.  Memoized against the
        mutation epoch: the offsets pre-pass, the vertex expansion, and
        the driver's count()/empty() all share one scan per iteration.
        """
        return self._memoized("nonzero_words")

    def _scan_nonzero_words(self) -> np.ndarray:
        candidates = _bitops.expand_words(self.words_l2, self.bits, self.n_words)
        # Layer 2 is maintained *exactly*: remove() clears a word's layer-2
        # bit the moment the word reaches zero, and check_invariant()
        # enforces the exact match — so the candidates need no filtering in
        # a correct state.  The filter below is defense-in-depth against
        # direct writes into `words` that bypass insert()/remove(); it also
        # means a stale-set layer-2 bit degrades to wasted work rather than
        # phantom vertices.
        return candidates[self.words[candidates] != 0]

    # -- advance support -------------------------------------------------- #
    def compute_offsets(self) -> np.ndarray:
        """Pre-advance pass: store nonzero word offsets in the global buffer.

        "Before each advance operation, GPU threads map to integers in the
        second layer to find nonzero integers in the first bitmap layer and
        store their offsets in a global buffer." (Section 4.3)

        The scan itself comes from the memoized :meth:`nonzero_words`;
        the buffer fill is skipped when the epoch hasn't moved since the
        last call.
        """
        nz = self.nonzero_words()
        if self._offsets_epoch != self._epoch or not self._memo_enabled:
            self._n_offsets = nz.size
            self.offsets[: nz.size] = nz
            self._offsets_epoch = self._epoch
        return self.offsets[: self._n_offsets]

    @property
    def n_offsets(self) -> int:
        return self._n_offsets

    # -- memory --------------------------------------------------------- #
    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes + self.words_l2.nbytes + self.offsets.nbytes)

    # -- plumbing -------------------------------------------------------- #
    def _swap_payload(self, other: Frontier) -> None:
        self._check_swappable(other)
        assert isinstance(other, TwoLayerBitmapFrontier)
        incoming_offsets = other._offsets_epoch == other._epoch
        outgoing_offsets = self._offsets_epoch == self._epoch
        self.words, other.words = other.words, self.words
        self.words_l2, other.words_l2 = other.words_l2, self.words_l2
        self.offsets, other.offsets = other.offsets, self.offsets
        self._n_offsets, other._n_offsets = other._n_offsets, self._n_offsets
        # epochs bump (external views go stale) but the memoized scans —
        # and the filled offsets buffer — follow their payloads
        self._swap_scan_state(other)
        self._offsets_epoch = self._epoch if incoming_offsets else -1
        other._offsets_epoch = other._epoch if outgoing_offsets else -1

    def check_invariant(self) -> bool:
        """Verify layer2_bit(i) == (word(i) != 0) and no out-of-range bits."""
        expected = np.nonzero(self.words)[0]
        flagged = _bitops.expand_words(self.words_l2, self.bits, self.n_words)
        # remove() clears layer-2 bits eagerly when a word reaches zero, so
        # the two sets must match exactly.
        if not np.array_equal(np.asarray(expected, dtype=np.int64), flagged):
            return False
        ids = _bitops.expand_words(self.words, self.bits, self.n_words * self.bits)
        return ids.size == 0 or int(ids.max()) < self.n_elements
