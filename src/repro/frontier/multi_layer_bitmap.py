"""N-layer bitmap frontier — the bitmap-tree of the paper's Section 4.4.

"Incorporating extra bitmap layers can refine our 2LB, turning the layout
into a bitmap-tree. ... more than two layers add substantial overhead
because of increased computation for nonzero integer offsets and extra
synchronization during advance operations."

This class generalizes the Two-Layer Bitmap to ``n_layers`` (layer *k* has
one bit per layer-*k-1* word), so the trade-off can actually be measured:
every insert/remove touches every layer, and the pre-advance offsets pass
becomes a chain of one dependent kernel per layer.  The paper also notes
that with a *dynamic* layer count the compiler cannot unroll the
set-bit loop unless the backend supports SYCL specialization constants
efficiently (mainly Intel); the advance accounts an extra per-layer
instruction cost on backends without native spec constants.

The ablation benchmark (``benchmarks/bench_bitmap_tree.py``) reproduces
the paper's conclusion: two layers win.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.errors import FrontierError
from repro.frontier import _bitops
from repro.frontier.base import Frontier, FrontierView, distinct_ids
from repro.perfmodel.cache import unique_sorted
from repro.types import bitmap_dtype

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue

#: shared read-only empty id array for primed empty scans
_EMPTY_IDS = np.empty(0, dtype=np.int64)


class MultiLayerBitmapFrontier(Frontier):
    """Bitmap-tree frontier with a configurable number of layers.

    ``n_layers=1`` is a flat bitmap, ``n_layers=2`` is the paper's 2LB.
    Layer 0 is the element bitmap; layer ``k`` summarizes layer ``k-1``.
    """

    def __init__(
        self,
        queue: "Queue",
        n_elements: int,
        view: FrontierView = FrontierView.VERTEX,
        bits: Optional[int] = None,
        n_layers: int = 2,
    ):
        super().__init__(queue, n_elements, view)
        if n_layers < 1:
            raise FrontierError(f"n_layers must be >= 1, got {n_layers}")
        self.bits = bits or queue.inspect().bitmap_bits
        self.n_layers = n_layers
        dtype = bitmap_dtype(self.bits)
        self.layers: List[np.ndarray] = []
        size = max(1, n_elements)
        for k in range(n_layers):
            n_words = _bitops.words_for(size, self.bits)
            self.layers.append(
                queue.malloc_shared((n_words,), dtype, label=f"frontier.mlb.l{k}", fill=0)
            )
            size = n_words
            if size == 1 and k + 1 < n_layers:
                # deeper layers would all be single words; stop early but
                # keep the requested count for cost accounting
                self.layers.extend(
                    queue.malloc_shared((1,), dtype, label=f"frontier.mlb.l{j}", fill=0)
                    for j in range(k + 1, n_layers)
                )
                break
        self.offsets = queue.malloc_shared(
            (self.layers[0].size,), np.int64, label="frontier.mlb.offsets", fill=0
        )
        self._n_offsets = 0
        #: epoch at which the offsets buffer was last (re)filled
        self._offsets_epoch = -1

    @property
    def words(self) -> np.ndarray:
        """Layer-0 words (the element bitmap), for bitmap-family interop."""
        return self.layers[0]

    @property
    def n_words(self) -> int:
        return int(self.layers[0].size)

    # -- mutation ------------------------------------------------------- #
    def insert(self, elements) -> None:
        active = ids = distinct_ids(elements, self.n_elements)
        if ids.size == 0:
            return
        was_empty = self._cached_was_empty()
        # every layer gets its summary bit — the per-insert cost that grows
        # with tree depth (paper §4.4).  Sorted ids have sorted words.
        level0_words = None
        for layer in self.layers:
            _bitops.set_bits(layer, ids, self.bits)
            ids = unique_sorted(ids // self.bits)
            if level0_words is None:
                level0_words = ids
        self._bump_epoch()
        if was_empty:
            # insert into a provably-empty frontier determines both scans by
            # construction — no tree walk needed for the next query
            self._prime_scan_cache(active=active, nonzero_words=level0_words)

    def remove(self, elements) -> None:
        ids = self._validated(elements)
        if ids.size == 0:
            return
        _bitops.clear_bits(self.layers[0], ids, self.bits)
        below = self.layers[0]
        ids = np.unique(ids // self.bits)
        for layer in self.layers[1:]:
            now_zero = ids[below[ids] == 0]
            _bitops.clear_bits(layer, now_zero, self.bits)
            below = layer
            ids = np.unique(ids // self.bits)
        self._bump_epoch()

    def clear(self) -> None:
        for layer in self.layers:
            layer[:] = 0
        self._n_offsets = 0
        self._bump_epoch()
        self._prime_scan_cache(active=_EMPTY_IDS, nonzero_words=_EMPTY_IDS)
        if Frontier._memo_enabled:
            self._offsets_epoch = self._epoch  # offsets buffer trivially valid

    # -- queries (memoized against the mutation epoch) ------------------ #
    def count(self) -> int:
        if not Frontier._memo_enabled:
            return _bitops.count_set_bits(self.layers[0])
        return int(self.active_elements().size)

    def active_elements(self) -> np.ndarray:
        return self._memoized("active")

    def _scan_compute(self, key: str):
        if key == "active":
            return _bitops.expand_selected_words(
                self.layers[0], self.nonzero_words(), self.bits, self.n_elements
            )
        if key == "nonzero_words":
            return self._walk_nonzero_words()
        return super()._scan_compute(key)

    def contains(self, elements) -> np.ndarray:
        ids = self._validated(elements)
        return _bitops.test_bits(self.layers[0], ids, self.bits)

    def nonzero_words(self) -> np.ndarray:
        """Walk the tree top-down to the nonzero layer-0 word indices.

        Memoized against the mutation epoch — the offsets chain and the
        vertex expansion share one walk per iteration.
        """
        return self._memoized("nonzero_words")

    def _walk_nonzero_words(self) -> np.ndarray:
        top = len(self.layers) - 1
        candidates = _bitops.expand_words(
            self.layers[top], self.bits, self.layers[top].size * self.bits
        )
        candidates = candidates[candidates < (self.layers[top - 1].size if top else self.n_words)]
        for k in range(top - 1, 0, -1):
            layer = self.layers[k]
            candidates = candidates[layer[candidates] != 0]
            candidates = _bitops.expand_selected_words(
                layer, candidates, self.bits, self.layers[k - 1].size
            )
        if top == 0:
            return np.nonzero(self.layers[0])[0].astype(np.int64)
        return candidates[self.layers[0][candidates] != 0]

    def compute_offsets(self) -> np.ndarray:
        """Pre-advance pass: one dependent traversal per extra layer.

        The tree walk comes from the memoized :meth:`nonzero_words`; the
        buffer fill is skipped when the epoch hasn't moved.
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
        return int(sum(layer.nbytes for layer in self.layers) + self.offsets.nbytes)

    # -- plumbing -------------------------------------------------------- #
    def _swap_payload(self, other: Frontier) -> None:
        self._check_swappable(other)
        assert isinstance(other, MultiLayerBitmapFrontier)
        if self.n_layers != other.n_layers:
            raise FrontierError("cannot swap bitmap-trees of different depths")
        incoming_offsets = other._offsets_epoch == other._epoch
        outgoing_offsets = self._offsets_epoch == self._epoch
        self.layers, other.layers = other.layers, self.layers
        self.offsets, other.offsets = other.offsets, self.offsets
        self._n_offsets, other._n_offsets = other._n_offsets, self._n_offsets
        # epochs bump (external views go stale) but the memoized scans —
        # and the filled offsets buffer — follow their payloads
        self._swap_scan_state(other)
        self._offsets_epoch = self._epoch if incoming_offsets else -1
        other._offsets_epoch = other._epoch if outgoing_offsets else -1

    def check_invariant(self) -> bool:
        """Every layer-k bit == (layer-(k-1) word nonzero), all k; and no
        element bit set beyond ``n_elements``."""
        below = self.layers[0]
        for layer in self.layers[1:]:
            expected = np.nonzero(below)[0]
            flagged = _bitops.expand_words(layer, self.bits, below.size)
            if not np.array_equal(np.asarray(expected, dtype=np.int64), flagged):
                return False
            below = layer
        ids = _bitops.expand_words(self.layers[0], self.bits, self.n_words * self.bits)
        return ids.size == 0 or int(ids.max()) < self.n_elements
