"""Simulated GPU devices and the *device inspector*.

The paper's device inspector (Section 3.2) "assesses the target GPU on the
fly to fine-tune parameters like thread block size, coarsening factor, and
memory layout".  Here a :class:`Device` couples a hardware profile
(:class:`DeviceSpec`, Table 4 of the paper) with a backend, and
:meth:`Device.inspect` derives the tuned kernel parameters exactly as
Section 4.3 prescribes:

* the bitmap word size is matched to the subgroup width (32-bit words for
  NVIDIA's 32-lane warps and Intel at SIMD32, 64-bit for AMD's 64-lane
  wavefronts) — the *MSI* optimization of Figure 7;
* the coarsening factor is chosen so one workgroup keeps a whole compute
  unit busy — the *CF* optimization of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import DeviceError
from repro.sycl.backend import Backend, BackendTraits, backend_traits


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware profile of a simulated GPU (one row of the paper's Table 4).

    All quantities are per physical device unless suffixed ``_per_cu``.

    Attributes
    ----------
    name / vendor:
        Marketing name and vendor string.
    compute_units:
        Number of SMs (NVIDIA), Xe-cores (Intel) or CUs (AMD).
    subgroup_sizes:
        Supported SIMD widths; first entry is the preferred one.  Intel
        exposes both 16 and 32 (Section 4.2), NVIDIA is fixed at 32 and
        AMD at 64.
    max_workgroup_size:
        Maximum workitems per workgroup.
    max_workgroups_per_cu:
        Resident workgroup limit per compute unit.
    max_threads_per_cu:
        Resident workitem limit per compute unit (the occupancy ceiling
        NCU's achieved-occupancy metric normalizes by).
    clock_ghz:
        Sustained compute clock.
    mem_bandwidth_gbs:
        Peak DRAM bandwidth in GB/s.
    l1_bytes_per_cu / l1_line_bytes / l1_ways:
        First-level cache geometry per compute unit.
    l2_bytes:
        Device-wide last-level cache (the MAX 1100's 108 MB L2 is what
        makes it shine on sparse road graphs in Figure 10).
    vram_bytes:
        Device memory capacity; allocations beyond this raise
        :class:`~repro.errors.OutOfMemoryError`.
    """

    name: str
    vendor: str
    compute_units: int
    subgroup_sizes: Tuple[int, ...]
    max_workgroup_size: int
    max_workgroups_per_cu: int
    max_threads_per_cu: int
    clock_ghz: float
    mem_bandwidth_gbs: float
    l1_bytes_per_cu: int
    l1_line_bytes: int
    l1_ways: int
    l2_bytes: int
    vram_bytes: int
    supported_backends: Tuple[Backend, ...] = ()

    def __post_init__(self) -> None:
        # the cost model takes a cache line id as a right shift
        line = self.l1_line_bytes
        if line < 1 or line & (line - 1):
            raise DeviceError(f"{self.name}: l1_line_bytes must be a power of two, got {line}")

    @property
    def preferred_subgroup_size(self) -> int:
        return self.subgroup_sizes[0]

    @property
    def max_resident_workitems(self) -> int:
        return self.compute_units * self.max_threads_per_cu


#: NVIDIA Tesla V100S — machine A of Table 4 (CUDA v12.3 backend, 6 MB L2).
V100S_SPEC = DeviceSpec(
    name="Tesla V100S",
    vendor="NVIDIA",
    compute_units=80,
    subgroup_sizes=(32,),
    max_workgroup_size=1024,
    max_workgroups_per_cu=32,
    max_threads_per_cu=2048,
    clock_ghz=1.245,
    mem_bandwidth_gbs=1134.0,
    l1_bytes_per_cu=128 * 1024,
    l1_line_bytes=128,
    l1_ways=4,
    l2_bytes=6 * 1024 * 1024,
    vram_bytes=32 * 1024**3,
    supported_backends=(Backend.CUDA,),
)

#: Intel Data Center GPU MAX 1100 — machine B (LevelZero + OpenCL, 108 MB L2).
MAX1100_SPEC = DeviceSpec(
    name="MAX1100",
    vendor="Intel",
    compute_units=56,
    subgroup_sizes=(32, 16),
    max_workgroup_size=1024,
    max_workgroups_per_cu=16,
    max_threads_per_cu=1024,
    clock_ghz=1.55,
    mem_bandwidth_gbs=1229.0,
    l1_bytes_per_cu=192 * 1024,
    l1_line_bytes=64,
    l1_ways=8,
    l2_bytes=108 * 1024 * 1024,
    vram_bytes=48 * 1024**3,
    supported_backends=(Backend.LEVEL_ZERO, Backend.OPENCL),
)

#: AMD Instinct MI100 — machine C (ROCm v7 backend, 8 MB L2, 64-wide waves).
MI100_SPEC = DeviceSpec(
    name="MI100",
    vendor="AMD",
    compute_units=120,
    subgroup_sizes=(64,),
    max_workgroup_size=1024,
    max_workgroups_per_cu=40,
    max_threads_per_cu=2560,
    clock_ghz=1.502,
    mem_bandwidth_gbs=1228.8,
    l1_bytes_per_cu=16 * 1024,
    l1_line_bytes=64,
    l1_ways=4,
    l2_bytes=8 * 1024 * 1024,
    vram_bytes=32 * 1024**3,
    supported_backends=(Backend.ROCM,),
)


@dataclass(frozen=True)
class TunedParameters:
    """Kernel parameters derived by the device inspector (Section 3.2/4.3)."""

    bitmap_bits: int
    subgroup_size: int
    workgroup_size: int
    coarsening_factor: int

    @property
    def vertices_per_workgroup(self) -> int:
        """How many vertices one workgroup covers (CF × word width)."""
        return self.bitmap_bits * self.coarsening_factor


@dataclass
class Device:
    """A simulated device: a hardware spec bound to a SYCL backend."""

    spec: DeviceSpec
    backend: Backend

    def __post_init__(self) -> None:
        if self.spec.supported_backends and self.backend not in self.spec.supported_backends:
            raise DeviceError(
                f"{self.spec.name} does not support backend {self.backend}; "
                f"supported: {[str(b) for b in self.spec.supported_backends]}"
            )

    @property
    def traits(self) -> BackendTraits:
        return backend_traits(self.backend)

    @property
    def name(self) -> str:
        return f"{self.spec.name} ({self.backend.value})"

    def inspect(
        self,
        match_subgroup_to_word: bool = True,
        coarsen: bool = True,
        subgroup_size: Optional[int] = None,
    ) -> TunedParameters:
        """Derive tuned kernel parameters for this device.

        ``match_subgroup_to_word`` enables the paper's *MSI* optimization
        (bitmap word width == subgroup width); when disabled the bitmap
        defaults to 64-bit words regardless of the device.  ``coarsen``
        enables the *CF* optimization (pick the coarsening factor that
        fills a compute unit); when disabled the factor is 1.
        """
        sg = subgroup_size or self.spec.preferred_subgroup_size
        if sg not in self.spec.subgroup_sizes:
            raise DeviceError(
                f"subgroup size {sg} unsupported on {self.spec.name}; "
                f"choose from {self.spec.subgroup_sizes}"
            )
        if match_subgroup_to_word:
            bitmap_bits = 64 if sg >= 64 else 32
        else:
            bitmap_bits = 64
        # One workgroup per bitmap word-group; size it to a few subgroups so
        # stage-2 neighbor processing has lanes to spread across.
        wg_size = min(self.spec.max_workgroup_size, max(sg * 4, 128))
        if coarsen:
            # Keep the whole compute unit active: enough words per workgroup
            # that (words * bits) covers the workgroup's lanes several times.
            cf = max(1, (wg_size * 2) // bitmap_bits)
        else:
            cf = 1
        return TunedParameters(
            bitmap_bits=bitmap_bits,
            subgroup_size=sg,
            workgroup_size=wg_size,
            coarsening_factor=cf,
        )


def nvidia_v100s() -> Device:
    """Machine A of Table 4: NVIDIA V100S over CUDA."""
    return Device(V100S_SPEC, Backend.CUDA)


def intel_max1100(backend: Backend = Backend.LEVEL_ZERO) -> Device:
    """Machine B of Table 4: Intel MAX 1100 over LevelZero (or OpenCL)."""
    return Device(MAX1100_SPEC, backend)


def amd_mi100() -> Device:
    """Machine C of Table 4: AMD MI100 over ROCm."""
    return Device(MI100_SPEC, Backend.ROCM)


_REGISTRY: Dict[str, object] = {
    "v100s": nvidia_v100s,
    "max1100": intel_max1100,
    "max1100-opencl": lambda: intel_max1100(Backend.OPENCL),
    "mi100": amd_mi100,
}


def list_devices() -> List[str]:
    """Names accepted by :func:`get_device`."""
    return sorted(_REGISTRY)


def get_device(name: str) -> Device:
    """Construct a device by short name (``v100s``, ``max1100``, ``mi100``)."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise DeviceError(f"unknown device {name!r}; known: {list_devices()}") from None
    return factory()  # type: ignore[operator]
