"""SYCL backend enumeration.

The paper's SYgraph targets four SYCL backends: CUDA (NVIDIA), ROCm (AMD),
LevelZero and OpenCL (Intel).  Backends differ in a small set of runtime
behaviours that the evaluation observes:

* kernel launch overhead (Figure 10 shows LevelZero vs OpenCL differences
  on the Intel MAX 1100);
* whether JIT *specialization constants* are efficiently supported
  (Section 4.4: "efficiently supported mainly on Intel GPUs");
* USM behaviour (Section 3.3: AMD Xnack-driven USM is suboptimal, so the
  framework can fall back to explicit device allocations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Backend(enum.Enum):
    """A SYCL platform backend."""

    CUDA = "cuda"
    ROCM = "rocm"
    LEVEL_ZERO = "level_zero"
    OPENCL = "opencl"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Our datasets are ~1/100 of the paper's (DESIGN.md substitution #3), so
#: per-iteration kernel *work* shrinks ~100x while a real launch overhead
#: would stay constant — which would make every traversal launch-bound and
#: invert the paper's results.  Scaling the simulated overhead down keeps
#: the work:overhead ratio representative of the real runs.  The factor is
#: a fixed calibration, not the datasets' size ratio
#: (:mod:`repro.perfmodel.scaling`).
LAUNCH_OVERHEAD_SCALE = 0.05


@dataclass(frozen=True)
class BackendTraits:
    """Backend-specific runtime behaviour knobs used by the cost model.

    Attributes
    ----------
    launch_overhead_us:
        Fixed host-side cost of submitting one kernel, in microseconds —
        already multiplied by :data:`LAUNCH_OVERHEAD_SCALE`.  OpenCL
        carries a heavier submission path than LevelZero; CUDA is the
        lightest.
    spec_constants_native:
        Whether JIT specialization constants fold to immediates (paper
        Section 4.4: true on Intel backends only).
    usm_penalty:
        Multiplier (>= 1.0) applied to global-memory traffic cost when
        graph/frontier buffers live in ``malloc_shared`` USM.  Models the
        Xnack page-migration overhead on ROCm; ~1.0 elsewhere.
    """

    launch_overhead_us: float
    spec_constants_native: bool
    usm_penalty: float


_TRAITS = {
    Backend.CUDA: BackendTraits(
        launch_overhead_us=3.0 * LAUNCH_OVERHEAD_SCALE, spec_constants_native=False, usm_penalty=1.02
    ),
    Backend.ROCM: BackendTraits(
        launch_overhead_us=4.5 * LAUNCH_OVERHEAD_SCALE, spec_constants_native=False, usm_penalty=1.35
    ),
    Backend.LEVEL_ZERO: BackendTraits(
        launch_overhead_us=4.0 * LAUNCH_OVERHEAD_SCALE, spec_constants_native=True, usm_penalty=1.05
    ),
    Backend.OPENCL: BackendTraits(
        launch_overhead_us=7.5 * LAUNCH_OVERHEAD_SCALE, spec_constants_native=True, usm_penalty=1.08
    ),
}


def backend_traits(backend: Backend) -> BackendTraits:
    """Return the runtime traits for ``backend``."""
    return _TRAITS[backend]
