"""repro.exec — the unified execution-plan layer.

Algorithms describe their iteration structure as a :class:`Plan` of
:class:`Step` descriptors; the :class:`PlanExecutor` runs it to
fixpoint.  One driver for every iterating single-device algorithm *and*
the per-device work of :mod:`repro.dist.bsp`, and the attachment point for
spans, metrics, fault sites, strict-mode checks and the opt-in
advance+compute/filter kernel fusion (see :doc:`docs/pipeline`).
"""

from repro.exec.executor import PlanExecutor
from repro.exec.fusion import PendingKernel, fuse_workloads
from repro.exec.plan import (
    AdvanceStep,
    ClearStep,
    ComputeStep,
    ExecContext,
    FilterStep,
    HostStep,
    IfStep,
    LoopStep,
    Plan,
    SET_OPS,
    SetOpStep,
    SpanStep,
    Step,
    SwapClearStep,
)

__all__ = [
    "AdvanceStep",
    "ClearStep",
    "ComputeStep",
    "ExecContext",
    "FilterStep",
    "HostStep",
    "IfStep",
    "LoopStep",
    "Plan",
    "PlanExecutor",
    "PendingKernel",
    "SET_OPS",
    "SetOpStep",
    "SpanStep",
    "Step",
    "SwapClearStep",
    "fuse_workloads",
]
