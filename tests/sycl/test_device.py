"""Device profiles and the device inspector."""

from dataclasses import replace

import pytest

from repro.errors import DeviceError
from repro.sycl.backend import Backend
from repro.sycl.device import (
    MAX1100_SPEC,
    MI100_SPEC,
    V100S_SPEC,
    Device,
    amd_mi100,
    get_device,
    intel_max1100,
    list_devices,
    nvidia_v100s,
)


class TestSpecs:
    def test_v100s_matches_table4(self):
        assert V100S_SPEC.vendor == "NVIDIA"
        assert V100S_SPEC.vram_bytes == 32 * 1024**3
        assert V100S_SPEC.l2_bytes == 6 * 1024**2
        assert V100S_SPEC.preferred_subgroup_size == 32

    def test_max1100_matches_table4(self):
        assert MAX1100_SPEC.vram_bytes == 48 * 1024**3
        assert MAX1100_SPEC.l2_bytes == 108 * 1024**2
        # Intel exposes both SIMD32 and SIMD16 (paper §4.2)
        assert set(MAX1100_SPEC.subgroup_sizes) == {16, 32}

    def test_mi100_matches_table4(self):
        assert MI100_SPEC.vram_bytes == 32 * 1024**3
        assert MI100_SPEC.l2_bytes == 8 * 1024**2
        # AMD wavefronts are 64-wide
        assert MI100_SPEC.preferred_subgroup_size == 64

    def test_max_resident_workitems(self):
        assert V100S_SPEC.max_resident_workitems == 80 * 2048

    @pytest.mark.parametrize("line", [0, 48, 96, 100, 129])
    def test_line_size_must_be_a_power_of_two(self, line):
        """The cost model takes line ids as right shifts."""
        with pytest.raises(DeviceError, match=f"l1_line_bytes must be a power of two, got {line}"):
            replace(V100S_SPEC, l1_line_bytes=line)

    @pytest.mark.parametrize("line", [1, 32, 64, 128, 256])
    def test_power_of_two_line_sizes_accepted(self, line):
        assert replace(MI100_SPEC, l1_line_bytes=line).l1_line_bytes == line


class TestBackendBinding:
    def test_v100s_is_cuda(self):
        assert nvidia_v100s().backend is Backend.CUDA

    def test_mi100_is_rocm(self):
        assert amd_mi100().backend is Backend.ROCM

    def test_max1100_default_level_zero(self):
        assert intel_max1100().backend is Backend.LEVEL_ZERO

    def test_max1100_opencl(self):
        assert intel_max1100(Backend.OPENCL).backend is Backend.OPENCL

    def test_invalid_backend_rejected(self):
        with pytest.raises(DeviceError):
            Device(V100S_SPEC, Backend.ROCM)


class TestRegistry:
    def test_list_devices(self):
        assert set(list_devices()) == {"v100s", "max1100", "max1100-opencl", "mi100"}

    def test_get_device(self):
        assert get_device("V100S").spec is V100S_SPEC

    def test_get_unknown_device(self):
        with pytest.raises(DeviceError):
            get_device("h100")


class TestInspector:
    def test_msi_matches_word_to_subgroup_nvidia(self):
        params = nvidia_v100s().inspect()
        assert params.bitmap_bits == 32  # warp = 32 -> 32-bit words

    def test_msi_matches_word_to_subgroup_amd(self):
        params = amd_mi100().inspect()
        assert params.bitmap_bits == 64  # wavefront = 64 -> 64-bit words

    def test_msi_disabled_defaults_to_64(self):
        params = nvidia_v100s().inspect(match_subgroup_to_word=False)
        assert params.bitmap_bits == 64

    def test_coarsening_disabled(self):
        params = nvidia_v100s().inspect(coarsen=False)
        assert params.coarsening_factor == 1

    def test_coarsening_enabled(self):
        params = nvidia_v100s().inspect(coarsen=True)
        assert params.coarsening_factor > 1

    def test_vertices_per_workgroup(self):
        params = nvidia_v100s().inspect()
        assert params.vertices_per_workgroup == params.bitmap_bits * params.coarsening_factor

    def test_intel_simd16(self):
        params = intel_max1100().inspect(subgroup_size=16)
        assert params.subgroup_size == 16

    def test_unsupported_subgroup_size(self):
        with pytest.raises(DeviceError):
            nvidia_v100s().inspect(subgroup_size=16)

    def test_workgroup_size_multiple_of_subgroup(self):
        for dev in (nvidia_v100s(), amd_mi100(), intel_max1100()):
            params = dev.inspect()
            assert params.workgroup_size % params.subgroup_size == 0
