"""Vectorized bit-manipulation helpers shared by the bitmap frontiers.

The bit convention throughout: bit ``k`` of word ``i`` in a ``bits``-wide
bitmap represents element ``i * bits + k`` (little-endian bit order), which
matches the paper's addressing: word index ``id(v) / b``, bit ``id(v) % b``.
"""

from __future__ import annotations

import numpy as np

from repro.types import bitmap_dtype

# numpy >= 2.0 ships a hardware popcount; keep a LUT fallback for older
# versions so the library stays importable there.  The LUT is always
# built (256 bytes) so the fallback path stays testable on numpy >= 2.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit count, in the words' own dtype (both paths)."""
    if _HAS_BITWISE_COUNT:
        # np.bitwise_count returns uint8; normalize to the word dtype
        return np.bitwise_count(words).astype(words.dtype)
    per_byte = _POPCNT8[words.view(np.uint8)]
    # reshape via the explicit itemsize: shape[0] breaks on empty input
    return per_byte.reshape(words.size, words.dtype.itemsize).sum(
        axis=1, dtype=words.dtype
    )


def count_set_bits(words: np.ndarray) -> int:
    """Total number of set bits in the word array."""
    if words.size == 0:
        return 0
    return int(popcount(words).sum(dtype=np.int64))


def words_for(n_elements: int, bits: int) -> int:
    """Number of ``bits``-wide words needed for ``n_elements`` bits."""
    return -(-n_elements // bits)


#: per word width, the one-bit mask of each bit position, in the width's dtype
_BIT_MASKS = {
    bits: np.left_shift(bitmap_dtype(bits).type(1), np.arange(bits, dtype=bitmap_dtype(bits)))
    for bits in (32, 64)
}
#: per word width, log2 of it: a word id is an element id shifted right
_WORD_SHIFT = {32: 5, 64: 6}


def set_bits(words: np.ndarray, elements: np.ndarray, bits: int) -> None:
    """Set the bits for ``elements`` (vectorized atomic-OR equivalent)."""
    elements = np.asarray(elements, dtype=np.int64)
    if elements.size == 0:
        return
    word_idx = elements >> _WORD_SHIFT[bits]
    np.bitwise_or.at(words, word_idx, _BIT_MASKS[bits][elements & (bits - 1)])


def clear_bits(words: np.ndarray, elements: np.ndarray, bits: int) -> None:
    """Clear the bits for ``elements``."""
    elements = np.asarray(elements, dtype=np.int64)
    if elements.size == 0:
        return
    word_idx = elements // bits
    masks = ~(words.dtype.type(1) << (elements % bits).astype(words.dtype))
    np.bitwise_and.at(words, word_idx, masks)


def test_bits(words: np.ndarray, elements: np.ndarray, bits: int) -> np.ndarray:
    """Boolean mask: is each element's bit set?"""
    elements = np.asarray(elements, dtype=np.int64)
    word_idx = elements // bits
    shifts = (elements % bits).astype(words.dtype)
    return (words[word_idx] >> shifts) & words.dtype.type(1) != 0


def expand_words(words: np.ndarray, bits: int, n_elements: int) -> np.ndarray:
    """Return the sorted element ids of all set bits (``int64``).

    This is the subgroup-compaction stage of the advance operation
    (Figure 4b stage 1) done for the whole bitmap at once.
    """
    if words.size == 0:
        return np.empty(0, dtype=np.int64)
    as_bytes = words.view(np.uint8)
    bit_matrix = np.unpackbits(as_bytes, bitorder="little")
    ids = np.nonzero(bit_matrix)[0]
    return ids[ids < n_elements]


def expand_selected_words(
    words: np.ndarray, word_indices: np.ndarray, bits: int, n_elements: int
) -> np.ndarray:
    """Element ids of set bits, scanning only ``word_indices``.

    This is the 2LB advance path: only words flagged nonzero by the second
    layer are expanded.
    """
    word_indices = np.asarray(word_indices, dtype=np.int64)
    if word_indices.size == 0:
        return np.empty(0, dtype=np.int64)
    selected = words[word_indices]
    as_bytes = selected.view(np.uint8).reshape(word_indices.size, -1)
    bit_matrix = np.unpackbits(as_bytes, axis=1, bitorder="little")
    local_rows, local_bits = np.nonzero(bit_matrix)
    ids = word_indices[local_rows] * bits + local_bits
    return ids[ids < n_elements]


def pack_elements(elements: np.ndarray, bits: int, n_words: int, dtype=None) -> np.ndarray:
    """Build a fresh word array with the given elements' bits set."""
    dtype = dtype or bitmap_dtype(bits)
    words = np.zeros(n_words, dtype=dtype)
    set_bits(words, elements, bits)
    return words
