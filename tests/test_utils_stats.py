"""Tests for repro.utils.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.simulator import late_window_p95
from repro.utils.stats import (
    PercentileTracker,
    geometric_mean,
    max_relative_cdf_gap,
    percentile,
    percentile_of_sorted,
)


class TestPercentile:
    def test_median_of_odd_sequence(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_p0_and_p100_are_extremes(self):
        samples = [5.0, 1.0, 9.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 9.0

    def test_matches_numpy(self):
        samples = list(np.random.default_rng(0).normal(size=200))
        assert percentile(samples, 95) == pytest.approx(np.percentile(samples, 95))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


def same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def numpy_percentile(samples, pct):
    with np.errstate(invalid="ignore"):  # numpy warns on inf - inf
        return np.percentile(samples, pct)


#: Samples with ties (few distinct values), infinities and huge magnitudes.
SAMPLE_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, -math.inf, math.inf]),
    st.floats(-1e300, 1e300, allow_nan=False),
)
PCTS = st.one_of(st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]), st.floats(0.0, 100.0))


class TestPercentileOfSorted:
    """The index-based helper equals ``np.percentile`` to the last bit."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(SAMPLE_VALUES, min_size=1, max_size=40), pct=PCTS)
    def test_bit_identical_to_numpy(self, values, pct):
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        assert same_bits(percentile_of_sorted(ordered, pct), numpy_percentile(ordered, pct))

    @settings(max_examples=100, deadline=None)
    @given(value=SAMPLE_VALUES, pct=PCTS)
    def test_single_sample(self, value, pct):
        ordered = np.array([value])
        assert same_bits(percentile_of_sorted(ordered, pct), numpy_percentile(ordered, pct))

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(SAMPLE_VALUES, min_size=0, max_size=20), pct=PCTS)
    def test_nan_input_returns_nan_like_numpy(self, values, pct):
        ordered = np.sort(np.asarray(values + [math.nan], dtype=np.float64))
        got = percentile_of_sorted(ordered, pct)
        assert math.isnan(got)
        assert same_bits(got, numpy_percentile(ordered, pct))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(SAMPLE_VALUES, min_size=0, max_size=40))
    def test_late_window_p95_matches_numpy(self, values):
        late = values[len(values) // 2 :]
        want = float(numpy_percentile(late, 95)) if late else 0.0
        assert same_bits(late_window_p95(values), want)
        assert same_bits(late_window_p95(np.asarray(values, dtype=np.float64)), want)

    def test_validates_like_percentile(self):
        with pytest.raises(ValueError, match="empty"):
            percentile_of_sorted(np.array([]), 50)
        with pytest.raises(ValueError, match="pct"):
            percentile_of_sorted(np.array([1.0]), 100.5)


class TestGeometricMean:
    def test_constant_sequence(self):
        assert geometric_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_two_values(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_non_positive_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_less_than_arithmetic_mean(self):
        values = [1.0, 2.0, 10.0]
        assert geometric_mean(values) < sum(values) / len(values)


class TestMaxRelativeCdfGap:
    def test_identical_distributions_zero_gap(self):
        samples = list(np.random.default_rng(1).exponential(size=500))
        assert max_relative_cdf_gap(samples, samples) == 0.0

    def test_scaled_distribution_gap(self):
        samples = list(np.random.default_rng(1).exponential(size=500))
        scaled = [1.2 * s for s in samples]
        gap = max_relative_cdf_gap(samples, scaled)
        assert gap == pytest.approx(0.2, rel=1e-6)

    def test_similar_samples_small_gap(self):
        rng = np.random.default_rng(2)
        reference = list(rng.gamma(2.0, 1.0, size=4000))
        other = list(rng.gamma(2.0, 1.0, size=4000))
        assert max_relative_cdf_gap(reference, other) < 0.15


class TestPercentileTracker:
    def test_basic_percentiles(self):
        tracker = PercentileTracker()
        tracker.extend(range(1, 101))
        assert tracker.p50() == pytest.approx(50.5)
        assert tracker.p95() == pytest.approx(95.05)
        assert tracker.p99() == pytest.approx(99.01)

    def test_empty_raises(self):
        tracker = PercentileTracker()
        with pytest.raises(ValueError):
            tracker.p95()
        with pytest.raises(ValueError):
            tracker.mean()

    def test_samples_returns_copy(self):
        tracker = PercentileTracker()
        tracker.add(1.0)
        samples = tracker.samples()
        samples.append(99.0)
        assert tracker.count == 1


class TestTrackerSortCacheInvalidation:
    """The cached sort must never survive a mutation.

    The digital-twin service keeps trackers alive across event-time windows
    and interleaves percentile queries with further recording; a stale sort
    cache would silently report the *previous* window's statistics.  These
    regression tests pin the record-after-percentile contract for every
    mutating entry point (``add``, ``extend``).
    """

    def test_add_after_percentile_refreshes_statistics(self):
        tracker = PercentileTracker()
        tracker.extend([1.0, 2.0, 3.0])
        assert tracker.p95() == pytest.approx(2.9)  # caches the sort
        tracker.add(1000.0)
        fresh = PercentileTracker()
        fresh.extend([1.0, 2.0, 3.0, 1000.0])
        assert tracker.p95() == fresh.p95()
        assert tracker.p50() == fresh.p50()

    def test_extend_after_percentile_refreshes_statistics(self):
        tracker = PercentileTracker()
        tracker.extend(range(10))
        before = tracker.p95()
        tracker.extend([500.0, 600.0])
        fresh = PercentileTracker()
        fresh.extend(list(range(10)) + [500.0, 600.0])
        assert tracker.p95() == fresh.p95()
        assert tracker.p95() > before

    def test_interleaved_window_loop_matches_batch(self):
        # The service's actual access pattern: query, record, query, record.
        tracker = PercentileTracker()
        window_rates = [120.0, 90.0, 240.0, 60.0, 180.0]
        medians = []
        for rate in window_rates:
            tracker.add(rate)
            medians.append(tracker.p50())
        expected = [
            percentile(window_rates[: i + 1], 50) for i in range(len(window_rates))
        ]
        assert medians == pytest.approx(expected)
