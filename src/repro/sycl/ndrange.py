"""Kernel launch geometry: ``range`` and ``nd_range``.

Section 3.3 of the paper: *advance* uses an ``nd_range`` (explicit global
and local sizes, so the framework controls workgroup formation), while
*compute* and *filter* use a plain ``range`` (global size only, workgroup
division left to the compiler).  :class:`WorkgroupGeometry` captures the
resolved launch shape the cost model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KernelError


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Range:
    """A 1-D ``sycl::range`` — global size only."""

    global_size: int

    def __post_init__(self) -> None:
        if self.global_size < 0:
            raise KernelError(f"range global size must be >= 0, got {self.global_size}")

    def resolve(self, default_workgroup_size: int, subgroup_size: int) -> "WorkgroupGeometry":
        """Pick a workgroup split the way a SYCL compiler would (round up
        to subgroup multiples, cap at the device default)."""
        wg = min(default_workgroup_size, max(subgroup_size, self.global_size))
        wg = _ceil_div(wg, subgroup_size) * subgroup_size
        return WorkgroupGeometry(
            global_size=self.global_size,
            workgroup_size=wg,
            subgroup_size=subgroup_size,
        )


@dataclass(frozen=True)
class NDRange:
    """A 1-D ``sycl::nd_range`` — explicit global and local sizes."""

    global_size: int
    local_size: int

    def __post_init__(self) -> None:
        if self.local_size <= 0:
            raise KernelError(f"nd_range local size must be > 0, got {self.local_size}")
        if self.global_size < 0:
            raise KernelError(f"nd_range global size must be >= 0, got {self.global_size}")
        if self.global_size % self.local_size != 0:
            raise KernelError(
                f"nd_range global size {self.global_size} is not a multiple of "
                f"local size {self.local_size} (SYCL requirement)"
            )

    def resolve(self, default_workgroup_size: int, subgroup_size: int) -> "WorkgroupGeometry":
        return WorkgroupGeometry(
            global_size=self.global_size,
            workgroup_size=self.local_size,
            subgroup_size=subgroup_size,
        )


@dataclass(frozen=True, init=False)
class WorkgroupGeometry:
    """Resolved launch shape: how workitems group into WGs and SGs.

    The derived counts are computed once, when the shape is built: the
    cost model reads them for every kernel it prices.
    """

    global_size: int
    workgroup_size: int
    subgroup_size: int
    num_workgroups: int = field(init=False, repr=False, compare=False)
    num_subgroups: int = field(init=False, repr=False, compare=False)
    #: lanes actually scheduled (workgroups are padded to full size)
    total_lanes: int = field(init=False, repr=False, compare=False)

    def __init__(self, global_size: int, workgroup_size: int, subgroup_size: int) -> None:
        workgroups = _ceil_div(global_size, workgroup_size) if global_size else 0
        # frozen: every field goes straight into the instance dict
        self.__dict__.update(
            global_size=global_size,
            workgroup_size=workgroup_size,
            subgroup_size=subgroup_size,
            num_workgroups=workgroups,
            num_subgroups=workgroups * _ceil_div(workgroup_size, subgroup_size),
            total_lanes=workgroups * workgroup_size,
        )

    @property
    def subgroups_per_workgroup(self) -> int:
        return _ceil_div(self.workgroup_size, self.subgroup_size)
