"""Tests for the batch-size efficiency curves."""

import numpy as np
import pytest

from repro.execution.efficiency import (
    SaturatingCurve,
    gpu_occupancy_curve,
    irregular_access_curve,
    recurrent_efficiency_curve,
    regular_access_curve,
    simd_efficiency_curve,
)


class TestSaturatingCurve:
    def test_monotonically_non_decreasing(self):
        curve = SaturatingCurve(max_efficiency=0.9, half_saturation=16.0)
        values = [curve(b) for b in (1, 2, 4, 8, 16, 64, 256, 1024)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_half_saturation_point(self):
        curve = SaturatingCurve(max_efficiency=0.8, half_saturation=32.0)
        assert curve(32) == pytest.approx(0.4)

    def test_never_exceeds_max(self):
        curve = SaturatingCurve(max_efficiency=0.8, half_saturation=4.0)
        assert curve(10**6) < 0.8

    def test_floor_applied_at_tiny_batches(self):
        curve = SaturatingCurve(max_efficiency=0.8, half_saturation=1000.0, floor=0.05)
        assert curve(1) == pytest.approx(0.05)

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            SaturatingCurve(0.8, 4.0)(0)
        with pytest.raises(ValueError):
            SaturatingCurve(0.8, 4.0)(-1)

    def test_vector_with_zero_rejected(self):
        with pytest.raises(ValueError):
            SaturatingCurve(0.8, 4.0)(np.array([1.0, 0.0, 2.0]))

    def test_vector_matches_scalar_calls(self):
        curve = SaturatingCurve(max_efficiency=0.8, half_saturation=1000.0, floor=0.05)
        batch = np.arange(1, 2049, dtype=np.float64)
        values = curve(batch)
        assert values.shape == batch.shape
        assert all(values[b - 1] == curve(b) for b in (1, 2, 52, 53, 1000, 2048))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SaturatingCurve(0.0, 4.0)
        with pytest.raises(ValueError):
            SaturatingCurve(0.8, 0.0)
        with pytest.raises(ValueError):
            SaturatingCurve(0.8, 4.0, floor=0.9)


class TestNamedCurves:
    def test_wider_simd_needs_larger_batches(self):
        avx2 = simd_efficiency_curve(256)
        avx512 = simd_efficiency_curve(512)
        # At a small batch, AVX-2 reaches a larger fraction of its peak.
        assert avx2(8) > avx512(8)
        # Both saturate to the same ceiling at huge batches.
        assert avx2(4096) == pytest.approx(avx512(4096), rel=0.05)

    def test_unsupported_width_raises(self):
        with pytest.raises(ValueError):
            simd_efficiency_curve(1024)

    def test_irregular_saturates_later_than_regular(self):
        irregular = irregular_access_curve()
        regular = regular_access_curve()
        assert irregular.half_saturation > regular.half_saturation

    def test_irregular_slower_than_regular(self):
        assert irregular_access_curve()(64) < regular_access_curve()(64)

    def test_recurrent_curve_is_flat(self):
        recurrent = recurrent_efficiency_curve()
        assert recurrent(256) / recurrent(16) < 1.2

    def test_gpu_occupancy_needs_large_batches(self):
        gpu = gpu_occupancy_curve()
        assert gpu(1) < 0.05
        assert gpu(1024) > 0.7
