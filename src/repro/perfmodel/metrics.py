"""Occupancy and derived hardware metrics (Table 5 counterparts)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sycl.ndrange import WorkgroupGeometry


#: Register/local-memory pressure keeps real kernels below 100% residency;
#: NCU reports 84-93% for every framework in the paper's Table 5.
RESOURCE_CEILING = 0.93


def achieved_occupancy(geom: WorkgroupGeometry, spec) -> float:
    """Fraction of the device's resident-workitem capacity this launch fills.

    Mirrors NCU's *achieved occupancy*: resident workgroups per CU are
    bounded by the launch size, the device's residency limit, and a fixed
    resource ceiling (registers / local memory).
    """
    if geom.num_workgroups == 0:
        return 0.0
    per_cu_workgroups = min(
        spec.max_workgroups_per_cu, geom.num_workgroups / spec.compute_units
    )
    resident_threads = min(spec.max_threads_per_cu, per_cu_workgroups * geom.workgroup_size)
    occ = resident_threads / spec.max_threads_per_cu
    return float(min(RESOURCE_CEILING, occ))
