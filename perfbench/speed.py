"""Host time at reference speed.

The speed of a shared machine drifts by tens of percent within seconds
(other tenants, frequency scaling), which swamps the change a host-time
optimisation makes.  :class:`SpeedClock` therefore brackets stretches of
work with a *calibration slice* — a fixed piece of interpreter and NumPy
work shaped like the simulator's own — and charges each stretch in units
of the slices around it: a stretch that took ``t`` seconds between slices
that took ``c0`` and ``c1`` costs ``t / min(c0, c1)`` slices.  The
minimum, because a slice preempted by the kernel reads long while nothing
makes it read short.  One slice is one *reference millisecond*
(``ref_ms``).

Interpreter speed and memory bandwidth drift apart, so the slice follows
the program's bottleneck: with ``large_arrays`` it adds passes over an
array beyond any L2 cache, for graphs whose edge arrays are that large
too.  Measured on a 2-vCPU Xeon VM, the interpreter-only slice left one
seed of the R-MAT workload 15% apart between runs and the mixed slice
0.3%, while on the small-array workloads the mixed slice split runs into
two levels 14% apart.

Slice time is never charged, and the slice never touches the program
under test, so the scale is the same for every version of the program.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.random.default_rng(0).integers(0, 512, size=256)
#: 8 MiB of int64
_LARGE = np.random.default_rng(1).integers(0, 1 << 20, size=1 << 20)
_GATHER = np.random.default_rng(2).integers(0, _LARGE.size, size=1 << 15)
#: edge arrays (8 bytes per edge) beyond this use the large-array slice
LARGE_ARRAY_BYTES = 1 << 20


def calibration_slice(large_arrays: bool) -> int:
    table = {}
    acc = 0
    for i in range(20):
        counts = np.bincount(_SMALL, minlength=512)
        acc += int(np.unique(_SMALL).size) + int((counts[_SMALL] > 1).sum())
        for j in range(50):
            table[j] = table.get(j, 0) + j * i
            acc += len(table) & j
    if large_arrays:
        acc += int(np.bincount(_GATHER, minlength=_LARGE.size)[0])
        acc += int(_LARGE[_GATHER].sum()) + int(_LARGE.sum())
    return acc


class SpeedClock:
    """Accumulates wall and reference time over marked stretches.

    Call :meth:`mark` at each boundary; the work between two consecutive
    marks is one stretch.  After :meth:`restart` the next mark opens a new
    stretch instead of closing one, so time between a stop and the next
    start is not charged.
    """

    def __init__(self, large_arrays: bool) -> None:
        self.large_arrays = large_arrays
        self.wall_s = 0.0
        self.ref_ms = 0.0
        #: wall time spent inside calibration slices
        self.slice_s = 0.0
        self._last = None  # (end of the last slice, its duration)

    def mark(self) -> None:
        t0 = time.perf_counter()
        calibration_slice(self.large_arrays)
        t1 = time.perf_counter()
        self.slice_s += t1 - t0
        if self._last is not None:
            end, before = self._last
            self.wall_s += t0 - end
            self.ref_ms += (t0 - end) / min(before, t1 - t0)
        self._last = (t1, t1 - t0)

    def restart(self) -> None:
        self._last = None
