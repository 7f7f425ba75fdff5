"""Kernel fusion for plan execution (opt-in, ``fuse=True``).

GraphBLAST's observation: once traversal is expressed as operators, the
next constant factor is *fusing* adjacent ones — a masked advance whose
output immediately feeds a filter/compute re-reads from DRAM a frontier
it just wrote.  Executed as one kernel, the epilogue (or prologue) runs
in-register on the lanes that produced the data: one launch, one grid
dispatch, and one trip through the cache hierarchy instead of two.

The mechanics here mirror that: :func:`fuse_workloads` folds a plain
``range``-launch kernel (compute/filter) into an advance's
:class:`~repro.perfmodel.cost.KernelWorkload`:

* the advance's launch geometry survives (it is the load-balanced one);
  the folded kernel's lane work rides along as ``serial_ops`` — no
  second dispatch, so its idle-lane padding disappears;
* address streams concatenate in program order, so the cost model's
  per-kernel L2 sees both kernels' lines *in one pass*: the frontier
  words and user data the epilogue would have re-read from DRAM now hit
  in L2 (this is the "fewer bytes streamed per iteration" win);
* atomics and contention targets add up — fusion does not hide them.

The NumPy *effect* of the fused pair is executed exactly as in the
unfused sequence: the executor calls the same workload builders at the
same program points, inside the same spans, and only puts the submit
off, so only the modeled kernel stream changes.  That is what the
differential matrix's ``--fused`` axis and the hypothesis property test
pin down: bit-identical results, different (cheaper) timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.cost import KernelWorkload


@dataclass
class PendingKernel:
    """A characterized workload whose submission the executor deferred.

    ``has_advance`` marks whether an advance launch is already folded in
    (an advance accepts epilogues; a lone compute/filter waits for an
    advance to serve as its prologue, or flushes standalone).
    """

    workload: KernelWorkload
    has_advance: bool


def fuse_workloads(
    advance_wl: KernelWorkload, other_wl: KernelWorkload, prologue: bool = False
) -> KernelWorkload:
    """Fold ``other_wl`` (a range-launch kernel) into ``advance_wl``.

    ``prologue=True`` places the folded kernel's streams *before* the
    advance's (CC's pointer-jump runs before the propagate advance);
    otherwise after (BFS's depth stamp).  Stream order is preserved so
    the L2 union model sees the same program-order line sequence a real
    fused kernel would issue.
    """
    name = (
        f"{other_wl.name}+{advance_wl.name}"
        if prologue
        else f"{advance_wl.name}+{other_wl.name}"
    )
    streams = (
        list(other_wl.streams) + list(advance_wl.streams)
        if prologue
        else list(advance_wl.streams) + list(other_wl.streams)
    )
    # the folded kernel's useful lane work, charged as serialized lane-ops
    # on the surviving launch (no second grid => no idle-lane padding)
    lane_ops = other_wl.active_lanes * other_wl.instructions_per_lane
    return KernelWorkload(
        name=name,
        geometry=advance_wl.geometry,
        active_lanes=advance_wl.active_lanes,
        instructions_per_lane=advance_wl.instructions_per_lane,
        streams=streams,
        atomics=advance_wl.atomics + other_wl.atomics,
        atomic_targets=advance_wl.atomic_targets + other_wl.atomic_targets,
        serial_ops=advance_wl.serial_ops + other_wl.serial_ops + lane_ops,
        engaged_subgroups=advance_wl.engaged_subgroups,
    )
