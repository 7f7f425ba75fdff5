"""Bitmap frontiers: the flat bitmap, the 2LB and the bitmap-tree (paper
Sections 4.1, 4.3 and 4.4) as one structure.

Layer 0 is the element bitmap — one bit per element, word index
``id / b``, bit ``id % b``.  Inserts are naturally duplicate-free, the
property that lets SYgraph skip the duplicate-removal post-processing
pass that vector frontiers require.  Layer ``k`` has one bit per word
of layer ``k-1``, set iff that word is nonzero; every mutation keeps::

    layer_k_bit(i) == (layer_{k-1}_word(i) != 0)

* One layer is the flat bitmap of §4.1: the advance scans every word.
* Two layers are the paper's Two-Layer Bitmap (2LB, §4.3, Figure 6).
  Before each advance, :meth:`BitmapFrontier.compute_offsets` finds the
  nonzero layer-0 words via layer 1 and stores their indices in a
  global offsets buffer; advance workgroups iterate over that buffer
  and never touch an all-zero word (fixing Figure 5a's waste).
* More layers are the bitmap-tree of §4.4: "Incorporating extra bitmap
  layers can refine our 2LB, turning the layout into a bitmap-tree. ...
  more than two layers add substantial overhead because of increased
  computation for nonzero integer offsets and extra synchronization
  during advance operations."  Every insert/remove touches every layer,
  and each layer above the 2LB's adds one dependent offsets kernel
  (charged in :func:`repro.operators.advance._scan_frontier`).  The
  ablation ``benchmarks/bench_bitmap_tree.py`` reproduces the paper's
  conclusion: two layers win.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.errors import FrontierError
from repro.frontier import _bitops
from repro.frontier.base import Frontier, FrontierView, _out_of_range, distinct_ids
from repro.perfmodel.cache import MARK_SPAN_BASE, MARK_SPAN_PER_ACCESS, SHORT_STREAM, unique_ints, unique_sorted
from repro.types import bitmap_dtype

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue

#: shared read-only empty id array for primed empty scans
_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: an insert of at most SHORT_STREAM ids ORs each word in place with
#: Python ints when the ids number at most this many or lie within this
#: many layer-0 words: a scalar OR costs ~0.3 us a word, one fancy ``|=``
#: ~4 us, and each id a few tenths of a microsecond more
SCALAR_WORDS = 8


def _set_few_bits(layers: List[np.ndarray], ids: List[int], bits: int) -> List[int]:
    """Set the bits of sorted distinct ``ids``, which touch at most
    :data:`SCALAR_WORDS` words, in every layer with Python ints (NumPy's
    per-call overhead is the whole cost of a few ids): per layer, one OR
    mask per touched word, OR-ed into it in place.  Sorted ids have
    sorted words, so a word's mask is complete when the next id lands on
    another word.  Returns the touched layer-0 words, sorted."""
    shift, low = bits.bit_length() - 1, bits - 1
    touched = ids
    words = None
    for layer in layers:
        keys = []
        word, mask = touched[0] >> shift, 0
        for i in touched:
            if i >> shift != word:
                layer[word] = layer.item(word) | mask
                keys.append(word)
                word, mask = i >> shift, 0
            mask |= 1 << (i & low)
        layer[word] = layer.item(word) | mask
        keys.append(word)
        if words is None:
            words = keys
        touched = keys
    return words


class BitmapFrontier(Frontier):
    """Array-of-words bitmap over ``n_elements`` bits, with
    ``n_layers - 1`` summary layers above it.

    Parameters
    ----------
    bits:
        Word width (32 or 64), shared by every layer.  Defaults to the
        device inspector's choice, which matches the subgroup width (the
        *MSI* optimization): 32 on NVIDIA/Intel, 64 on AMD.
    n_layers:
        1 is the flat bitmap, 2 the 2LB, more a bitmap-tree.  Layer
        ``k`` has ``ceil(|V| / b^(k+1))`` words (paper §4.3's sizes for
        the 2LB).
    """

    def __init__(
        self,
        queue: "Queue",
        n_elements: int,
        view: FrontierView = FrontierView.VERTEX,
        bits: Optional[int] = None,
        n_layers: int = 1,
    ):
        super().__init__(queue, n_elements, view)
        if n_layers < 1:
            raise FrontierError(f"n_layers must be >= 1, got {n_layers}")
        self.bits = int(bits or queue.inspect().bitmap_bits)
        self.n_layers = n_layers
        dtype = bitmap_dtype(self.bits)
        # allocation labels name the layout: they reach memory timelines
        # and the reasons of requests failed by an injected allocation fault
        name = {1: "frontier.bitmap", 2: "frontier.2lb"}.get(n_layers, "frontier.tree")
        self.layers: List[np.ndarray] = []
        size = max(1, n_elements)
        for k in range(1, n_layers + 1):
            size = _bitops.words_for(size, self.bits)
            label = name if n_layers == 1 else f"{name}.l{k}"
            self.layers.append(queue.malloc_shared((size,), dtype, label=label, fill=0))
        self.words = self.layers[0]
        self.n_words = int(self.words.size)
        # Global offsets buffer the pre-advance pass fills (worst case: all
        # words nonzero).  Allocated once, reused every iteration — this is
        # why the 2LB needs no per-iteration reallocation.  A flat bitmap
        # has no pre-pass, so no buffer.
        self.offsets: Optional[np.ndarray] = None
        if n_layers > 1:
            self.offsets = queue.malloc_shared(
                (self.n_words,), np.int64, label=f"{name}.offsets", fill=0
            )
        self._n_offsets = 0
        #: epoch at which the offsets buffer was last (re)filled
        self._offsets_epoch = -1

    # -- mutation ------------------------------------------------------- #
    def insert(self, elements) -> None:
        """Set the bits of ``elements`` in every layer.  At most
        :data:`SHORT_STREAM` ids are set with Python ints when they touch
        at most :data:`SCALAR_WORDS` words: there are that few of them, or
        they span that few.  More ids, or scattered ones, that
        ``count_distinct``'s mark rule lets mark the whole frontier are
        marked in one bool array and packed into layer 0's words; sparser
        ones are sorted and set word by word."""
        ids = self._as_ids(elements)
        if ids.size == 0:
            return
        n = self.n_elements
        was_empty = self._cached_was_empty()
        # "When adding a vertex, the corresponding bit in the second layer
        # is calculated and set to 1 if it's not already" (§4.3), and so on
        # up the tree
        count = ids.size
        small = count <= SHORT_STREAM
        if small:
            values = ids.tolist()
            if count <= SCALAR_WORDS:
                distinct = sorted(set(values))
                lo, hi = distinct[0], distinct[-1]
            else:
                # more ids pay on Python ints only within SCALAR_WORDS
                # words: their ends route them before any sort
                lo, hi = min(values), max(values)
                shift = self.bits.bit_length() - 1
                distinct = sorted(set(values)) if (hi >> shift) - (lo >> shift) < SCALAR_WORDS else None
            if lo < 0 or hi >= n:
                raise _out_of_range(n, lo, hi)
            if distinct is not None:
                words = _set_few_bits(self.layers, distinct, self.bits)
                self._bump_epoch()
                if was_empty:
                    # the insert determines the scans: one array holds both
                    primed = np.array(distinct + words, dtype=np.int64)
                    k = len(distinct)
                    self._prime_scan_cache(active=primed[:k], nonzero_words=primed[k:])
                return
            # scattered: a NumPy path below, range-checked already
        if n <= MARK_SPAN_PER_ACCESS * count + MARK_SPAN_BASE:
            if not small:
                lo, hi = int(ids.min()), int(ids.max())
                if lo < 0 or hi >= n:
                    raise _out_of_range(n, lo, hi)
            mark = np.zeros(self.n_words * self.bits, dtype=np.bool_)
            mark[ids] = True
            packed = np.packbits(mark, bitorder="little").view(self.words.dtype)
            self.words |= packed
            words = np.flatnonzero(packed)
            if was_empty:
                # the primed active scan: past MARK_SPAN_BASE elements a
                # pass over the marks costs about twice per element what
                # marking them did, so past half the mark rule's span the
                # sorted distinct ids cost less; up to MARK_SPAN_BASE
                # elements NumPy's per-call overhead sets both costs, which
                # stay within ~1.5 us of each other
                sort = n > MARK_SPAN_BASE and n > MARK_SPAN_PER_ACCESS // 2 * count
                ids = unique_ints(ids) if sort else np.flatnonzero(mark)
        else:
            ids = unique_ints(ids) if small else distinct_ids(ids, n)
            _bitops.set_bits(self.words, ids, self.bits)
            if self.n_layers > 1 or was_empty:
                # sorted ids have sorted words: one pass drops the repeats
                words = unique_sorted(ids // self.bits)
        if self.n_layers > 1:
            touched = words
            _bitops.set_bits(self.layers[1], touched, self.bits)
            for layer in self.layers[2:]:
                touched = unique_sorted(touched // self.bits)
                _bitops.set_bits(layer, touched, self.bits)
        self._bump_epoch()
        if was_empty:
            # inserting into a provably-empty frontier determines the scans
            # by construction: no bitmap pass needed to answer the next query
            self._prime_scan_cache(active=ids, nonzero_words=words)

    def remove(self, elements) -> None:
        ids = self._validated(elements)
        if ids.size == 0:
            return
        _bitops.clear_bits(self.words, ids, self.bits)
        # "For vertex removal, if the integer becomes 0, the second layer
        # bit is reset to 0" (§4.3), and so on up the tree
        below, touched = self.words, ids
        for layer in self.layers[1:]:
            touched = np.unique(touched // self.bits)
            _bitops.clear_bits(layer, touched[below[touched] == 0], self.bits)
            below = layer
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
            return _bitops.count_set_bits(self.words)
        # shares the expansion with active_elements(): one bitmap scan
        # serves the driver's empty()/count() and the advance
        return int(self.active_elements().size)

    def active_elements(self) -> np.ndarray:
        return self._memoized("active")

    def _scan_compute(self, key: str):
        if key == "active":
            if self.n_layers == 1:
                return _bitops.expand_words(self.words, self.bits, self.n_elements)
            # the summary walk found the nonzero words: expand only those
            # while they are a minority, every word once most are nonzero
            # (selecting a word costs about twice what unpacking it does)
            nonzero = self.nonzero_words()
            if 2 * nonzero.size > self.n_words:
                return _bitops.expand_words(self.words, self.bits, self.n_elements)
            return _bitops.expand_selected_words(self.words, nonzero, self.bits, self.n_elements)
        if key == "nonzero_words":
            return self._walk_nonzero_words()
        return super()._scan_compute(key)

    def contains(self, elements) -> np.ndarray:
        ids = self._validated(elements)
        return _bitops.test_bits(self.words, ids, self.bits)

    def storage(self, ids: np.ndarray):
        """The layer-0 word holding each element, at the word width."""
        return ids // self.bits, self.words.dtype.itemsize

    def nonzero_words(self) -> np.ndarray:
        """Indices of layer-0 words with at least one set bit.

        A flat bitmap finds them by scanning *every* word — the cost the
        2LB exists to avoid (Figure 5a).  With summary layers, the walk
        goes top-down and never touches a word whose summary bit is 0.
        Memoized against the mutation epoch: the offsets pre-pass, the
        element expansion and the driver's count()/empty() share one
        walk per iteration.
        """
        return self._memoized("nonzero_words")

    def _walk_nonzero_words(self) -> np.ndarray:
        if self.n_layers == 1:
            return np.nonzero(self.words)[0].astype(np.int64)
        layers, bits = self.layers, self.bits
        candidates = _bitops.expand_words(layers[-1], bits, layers[-2].size)
        for k in range(len(layers) - 2, 0, -1):
            layer = layers[k]
            candidates = _bitops.expand_selected_words(
                layer, candidates[layer[candidates] != 0], bits, layers[k - 1].size
            )
        # The summaries are maintained *exactly*: remove() clears a bit the
        # moment its word reaches zero, and check_invariant() enforces the
        # exact match — so a correct state needs no filtering.  The filter
        # is defense-in-depth against direct writes into `words` that
        # bypass insert()/remove(): a stale-set summary bit degrades to
        # wasted work rather than phantom elements.
        return candidates[self.words[candidates] != 0]

    # -- advance support -------------------------------------------------- #
    def compute_offsets(self) -> np.ndarray:
        """Pre-advance pass: store nonzero word offsets in the global buffer.

        "Before each advance operation, GPU threads map to integers in the
        second layer to find nonzero integers in the first bitmap layer and
        store their offsets in a global buffer." (Section 4.3)

        The walk itself comes from the memoized :meth:`nonzero_words`;
        the buffer fill is skipped when the epoch hasn't moved since the
        last call.  A flat bitmap has no summary layer to map threads to,
        and so no offsets buffer.
        """
        if self.offsets is None:
            raise FrontierError("a one-layer bitmap has no offsets buffer")
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
        offsets = 0 if self.offsets is None else self.offsets.nbytes
        return int(sum(layer.nbytes for layer in self.layers) + offsets)

    # -- plumbing -------------------------------------------------------- #
    def _swap_payload(self, other: Frontier) -> None:
        self._check_swappable(other)
        assert isinstance(other, BitmapFrontier)
        if (self.n_layers, self.bits) != (other.n_layers, other.bits):
            raise FrontierError(
                f"cannot swap a {self.n_layers}-layer {self.bits}-bit bitmap "
                f"with a {other.n_layers}-layer {other.bits}-bit bitmap"
            )
        incoming_offsets = other._offsets_epoch == other._epoch
        outgoing_offsets = self._offsets_epoch == self._epoch
        self.layers, other.layers = other.layers, self.layers
        self.words, other.words = other.words, self.words
        self.offsets, other.offsets = other.offsets, self.offsets
        self._n_offsets, other._n_offsets = other._n_offsets, self._n_offsets
        # epochs bump (external views go stale) but the memoized scans —
        # and the filled offsets buffer — follow their payloads
        self._swap_scan_state(other)
        self._offsets_epoch = self._epoch if incoming_offsets else -1
        other._offsets_epoch = other._epoch if outgoing_offsets else -1

    def check_invariant(self) -> bool:
        """Every layer-k bit == (layer-(k-1) word nonzero), for all k; and
        no element bit set beyond ``n_elements`` (the tail of the last
        word)."""
        below = self.words
        for layer in self.layers[1:]:
            expected = np.nonzero(below)[0]
            flagged = _bitops.expand_words(layer, self.bits, below.size)
            # remove() clears summary bits eagerly when a word reaches
            # zero, so the two sets must match exactly
            if not np.array_equal(np.asarray(expected, dtype=np.int64), flagged):
                return False
            below = layer
        ids = _bitops.expand_words(self.words, self.bits, self.n_words * self.bits)
        return ids.size == 0 or int(ids.max()) < self.n_elements
