"""Abstract frontier interface and factory.

Matches the C++ API surface of the paper's Section 3.1 "Frontier"
component: a frontier can be queried for its status (count of active
elements, emptiness), elements can be inserted/removed, and it can be
cleared and swapped.  The ``FrontierView`` enum mirrors
``frontier_view_t::vertex`` / ``::edge`` from Listing 1.
"""

from __future__ import annotations

import abc
import enum
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import FrontierError
from repro.perfmodel.cache import unique_ints

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.queue import Queue


class FrontierView(enum.Enum):
    """What kind of elements the frontier holds (Listing 1's template arg)."""

    VERTEX = "vertex"
    EDGE = "edge"


class Frontier(abc.ABC):
    """Set of active elements for one algorithm iteration.

    Concrete layouts: the bitmap (flat, 2LB or bitmap-tree, by its
    number of layers), vector and boolmap.  All methods take/return
    NumPy integer arrays of element ids.

    Every frontier carries a **mutation epoch** — a version counter
    bumped by every operation that can change the active set (insert,
    remove, clear, payload swap, and the word-parallel kernels in
    :mod:`repro.frontier.ops`).  Scan-shaped queries
    (``active_elements`` / ``count`` / ``nonzero_words`` /
    ``compute_offsets``) are memoized against it, so one algorithm
    iteration expands each frontier exactly once no matter how many
    times the driver asks ``empty()``/``count()`` and the advance asks
    for offsets and vertices.  Strict mode cross-checks every cached
    view against a fresh recomputation after each kernel
    (:meth:`scan_cache_coherent`), so a forgotten epoch bump can never
    silently serve a stale frontier.
    """

    #: class-wide switch for the epoch memoization.  Tests flip it off
    #: (via :func:`scan_memoization`) to run the pre-memoization
    #: rescan-everything path as a reference.
    _memo_enabled = True

    def __init__(self, queue: "Queue", n_elements: int, view: FrontierView):
        if n_elements < 0:
            raise FrontierError(f"frontier size must be >= 0, got {n_elements}")
        self.queue = queue
        self.n_elements = int(n_elements)
        self.view = view
        self._epoch = 0
        #: scan cache: key -> value, valid while _scan_cache_epoch == _epoch
        self._scan_cache: Dict[str, object] = {}
        self._scan_cache_epoch = -1
        checker = getattr(queue, "invariant_checker", None)
        if checker is not None:
            checker.register(self)

    # -- mutation epoch / scan cache ------------------------------------ #
    @property
    def epoch(self) -> int:
        """Mutation version: changes whenever the active set may have."""
        return self._epoch

    def _bump_epoch(self) -> None:
        """Invalidate memoized scans.  Called by every mutation path;
        conservative (a no-op remove still bumps) — correctness over
        cache retention."""
        self._epoch += 1

    def _memoized(self, key: str):
        """Return ``self._scan_compute(key)`` memoized against the epoch.

        Values are keyed by scan name so strict mode can recompute and
        diff them (:meth:`scan_cache_coherent`), and so a payload swap
        can hand a still-valid cache to the other frontier
        (:meth:`_swap_scan_state`).  Cached arrays are shared with
        callers — treat them as read-only.
        """
        stats = self.queue.scan_stats
        if not Frontier._memo_enabled:
            stats.misses += 1
            return self._scan_compute(key)
        if self._scan_cache_epoch != self._epoch:
            self._scan_cache.clear()
            self._scan_cache_epoch = self._epoch
        if key not in self._scan_cache:
            stats.misses += 1
            self._scan_cache[key] = self._scan_compute(key)
        else:
            stats.hits += 1
        return self._scan_cache[key]

    def _scan_compute(self, key: str):
        """Fresh (uncached) value of the scan named ``key``.

        Each layout dispatches its own scan keys; called on cache miss,
        with memoization disabled, and by the strict-mode coherence
        replay.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no memoized scan {key!r}"
        )

    def _prime_scan_cache(self, **entries) -> None:
        """Install scan results known *by construction* for this epoch.

        Write-through caching: ``clear()`` knows the active set is empty
        and ``insert()`` into an empty frontier knows it exactly, so the
        mutation can hand the next query its answer without any scan of
        the backing storage.  Primed entries are validated by the
        strict-mode coherence replay exactly like computed ones.
        """
        if not Frontier._memo_enabled:
            return
        if self._scan_cache_epoch != self._epoch:
            self._scan_cache.clear()
            self._scan_cache_epoch = self._epoch
        self._scan_cache.update(entries)

    def _cached_was_empty(self) -> bool:
        """True iff a *fresh* cached scan proves the frontier is empty.

        Used by ``insert()`` to decide whether the primed-insert fast
        path applies; a stale or missing cache conservatively returns
        False (the next query rescans instead).
        """
        if not Frontier._memo_enabled or self._scan_cache_epoch != self._epoch:
            return False
        active = self._scan_cache.get("active")
        return active is not None and active.size == 0

    def scan_cache_coherent(self) -> Optional[str]:
        """Key of the first stale cache entry, or None when coherent.

        Recomputes every memoized view from the backing storage and
        diffs it against the cached value.  A mismatch means something
        mutated the frontier without bumping the epoch.
        """
        if self._scan_cache_epoch != self._epoch:
            return None
        for key, value in list(self._scan_cache.items()):
            fresh = self._scan_compute(key)
            if isinstance(value, np.ndarray) or isinstance(fresh, np.ndarray):
                same = np.array_equal(np.asarray(value), np.asarray(fresh))
            else:
                same = value == fresh
            if not same:
                return key
        return None

    def _swap_scan_state(self, other: "Frontier") -> None:
        """Epoch/cache bookkeeping for a payload swap.

        A swap changes both frontiers' active sets, so both epochs bump
        (any externally held view is now stale).  But each memoized scan
        still describes the payload it was computed from — so the caches
        travel **with** the payloads instead of being discarded.  This
        is what makes the driver loop's ``swap(in, out)`` free of
        rescans: the iteration's last scan of the out-frontier becomes
        the next iteration's in-frontier scan.
        """
        incoming_fresh = other._scan_cache_epoch == other._epoch
        outgoing_fresh = self._scan_cache_epoch == self._epoch
        self._bump_epoch()
        other._bump_epoch()
        self._scan_cache, other._scan_cache = other._scan_cache, self._scan_cache
        self._scan_cache_epoch = self._epoch if incoming_fresh else -1
        other._scan_cache_epoch = other._epoch if outgoing_fresh else -1

    # -- mutation ------------------------------------------------------- #
    @abc.abstractmethod
    def insert(self, elements) -> None:
        """Add element ids (scalar or array) to the frontier."""

    @abc.abstractmethod
    def remove(self, elements) -> None:
        """Remove element ids from the frontier (absent ids are ignored)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Empty the frontier (Listing 1 line 19)."""

    # -- queries -------------------------------------------------------- #
    @abc.abstractmethod
    def count(self) -> int:
        """Number of active elements (duplicates counted once)."""

    @abc.abstractmethod
    def active_elements(self) -> np.ndarray:
        """Sorted unique active element ids as ``int64``."""

    @abc.abstractmethod
    def contains(self, elements) -> np.ndarray:
        """Boolean membership mask for the given element ids."""

    def empty(self) -> bool:
        """True when no element is active (Listing 1 line 8)."""
        return self.count() == 0

    @abc.abstractmethod
    def storage(self, ids: np.ndarray) -> Tuple[np.ndarray, int]:
        """Where a kernel touches this layout for the elements ``ids``:
        the item addresses in its backing storage and the item size in
        bytes.  Cost accounting streams these for every probe of and
        write into the frontier."""

    def check_invariant(self) -> bool:
        """True iff the internal representation is self-consistent.

        Every layout overrides this with its structural rules (layer
        coherence, capacity bounds, id ranges); strict mode
        (:mod:`repro.checking.invariants`) calls it after every kernel.
        """
        return True

    # -- memory --------------------------------------------------------- #
    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Current device memory footprint of this frontier."""

    # -- plumbing -------------------------------------------------------- #
    @abc.abstractmethod
    def _swap_payload(self, other: "Frontier") -> None:
        """Exchange backing storage with ``other`` (same layout/size)."""

    def _check_swappable(self, other: "Frontier") -> None:
        if type(self) is not type(other):
            raise FrontierError(
                f"cannot swap {type(self).__name__} with {type(other).__name__}"
            )
        if self.n_elements != other.n_elements:
            raise FrontierError(
                f"cannot swap frontiers of different sizes "
                f"({self.n_elements} vs {other.n_elements})"
            )

    @staticmethod
    def _as_ids(elements) -> np.ndarray:
        """``elements`` (a scalar or an array) as an int64 array of at
        least one dimension: an int64 vector as it is."""
        ids = np.asarray(elements, dtype=np.int64)
        return ids if ids.ndim else ids.reshape(1)

    def _validated(self, elements) -> np.ndarray:
        ids = self._as_ids(elements)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_elements):
            raise _out_of_range(self.n_elements, ids.min(), ids.max())
        return ids


def _out_of_range(n_elements: int, lowest, highest) -> FrontierError:
    return FrontierError(f"element id out of range [0, {n_elements}): [{lowest}, {highest}]")


def distinct_ids(elements, n_elements: int) -> np.ndarray:
    """The distinct element ids of ``elements`` (scalar or array), sorted
    — one sort, whose ends give the range check against
    ``[0, n_elements)``."""
    ids = unique_ints(Frontier._as_ids(elements))
    if ids.size and (ids[0] < 0 or ids[-1] >= n_elements):
        raise _out_of_range(n_elements, ids[0], ids[-1])
    return ids


@contextmanager
def scan_memoization(enabled: bool = True):
    """Toggle the epoch-memoized frontier scans process-wide.

    ``with scan_memoization(False):`` restores the pre-memoization
    behaviour — every ``count``/``active_elements``/``nonzero_words``/
    ``compute_offsets`` call rescans the backing storage.  Tests use it
    as the reference path: results and modeled ns are identical either
    way (epochs keep advancing while disabled, so re-enabling can never
    revive a stale cache).
    """
    previous = Frontier._memo_enabled
    Frontier._memo_enabled = enabled
    try:
        yield
    finally:
        Frontier._memo_enabled = previous


#: layouts whose constructor accepts a ``bits`` word-width argument
BITMAP_LAYOUTS = ("2lb", "bitmap", "tree")

#: layer count of the bitmap layouts whose depth is fixed
_BITMAP_DEPTHS = {"bitmap": 1, "2lb": 2}


def layout_bits_kwargs(layout: str, bits=None, params=None) -> dict:
    """``make_frontier`` kwargs carrying a bitmap word width.

    The width is ``bits`` when given, else the ``bitmap_bits`` of
    ``params`` (an advance configuration's tuned parameters), so an
    algorithm's frontiers have the width its advances model.  Returns
    ``{"bits": width}`` for bitmap-family layouts and ``{}`` for layouts
    without a word width (vector, boolmap) or when neither is given (the
    device inspector's width) — so algorithms can pass a width through
    uniformly.
    """
    if bits is None and params is not None:
        bits = params.bitmap_bits
    if bits is not None and layout in BITMAP_LAYOUTS:
        return {"bits": int(bits)}
    return {}


def make_frontier(
    queue: "Queue",
    n_elements: int,
    view: FrontierView = FrontierView.VERTEX,
    layout: str = "2lb",
    **kwargs,
) -> Frontier:
    """Create a frontier (paper's ``makeFrontier<view>(G)``).

    ``layout`` selects the data layout: ``"2lb"`` (default, the paper's
    Two-Layer Bitmap), ``"bitmap"``, ``"vector"``, ``"boolmap"`` or
    ``"tree"`` (the §4.4 bitmap-tree; pass ``n_layers=...``, default 2).
    The three bitmap layouts are one :class:`BitmapFrontier` at two,
    one and ``n_layers`` layers.  Extra kwargs go to the layout
    constructor (e.g. ``bits=32``).
    """
    from repro.frontier.bitmap import BitmapFrontier
    from repro.frontier.boolmap import BoolmapFrontier
    from repro.frontier.vector import VectorFrontier

    layouts = {
        "2lb": BitmapFrontier,
        "bitmap": BitmapFrontier,
        "vector": VectorFrontier,
        "boolmap": BoolmapFrontier,
        "tree": BitmapFrontier,
    }
    try:
        cls = layouts[layout]
    except KeyError:
        raise FrontierError(f"unknown frontier layout {layout!r}; known: {sorted(layouts)}") from None
    if layout in _BITMAP_DEPTHS:
        if "n_layers" in kwargs:
            raise TypeError(f"layout {layout!r} has a fixed depth; pass n_layers with layout='tree'")
        kwargs["n_layers"] = _BITMAP_DEPTHS[layout]
    elif layout == "tree":
        kwargs.setdefault("n_layers", 2)
    return cls(queue, n_elements, view, **kwargs)
