"""Property tests for the streaming quantile sketch and its tracker mode.

These tests are the enforcement arm of the contract documented in
``repro.utils.sketch``: pre-compaction exactness, the normalised
rank-error bound on adversarial streams, ``add``/``extend`` equivalence,
cached level capacities that never go stale, and the O(1)
footprint that makes ``PercentileTracker(mode="sketch")`` safe for
million-query traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.sketch import DEFAULT_K, RANK_ERROR_BOUND, QuantileSketch
from repro.utils.stats import PercentileTracker

SETTINGS = settings(max_examples=60, deadline=None)

#: Worst-case retained floats for any stream length (see sketch docstring).
FOOTPRINT_BOUND = 3 * DEFAULT_K + 8 * 64

PCTS = (1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)


def normalised_rank_error(data, value, pct):
    """Distance (in normalised rank) from ``value`` to the exact pct."""
    ordered = np.sort(np.asarray(data, dtype=np.float64))
    n = ordered.size
    lo = np.searchsorted(ordered, value, side="left") / n
    hi = np.searchsorted(ordered, value, side="right") / n
    q = pct / 100.0
    if lo <= q <= hi:
        return 0.0
    return min(abs(lo - q), abs(hi - q))


def adversarial_stream(kind, n, seed):
    """Streams chosen to stress the compactor hierarchy, not flatter it."""
    rng = np.random.default_rng(seed)
    if kind == "bimodal":
        tight = rng.normal(1.0, 0.01, n)
        far = rng.normal(1000.0, 1.0, n)
        return np.where(rng.random(n) < 0.5, tight, far)
    if kind == "heavy-tail":
        return rng.pareto(1.05, n) + 1.0
    if kind == "constant":
        return np.full(n, 7.25)
    if kind == "sorted":
        return np.sort(rng.random(n))
    raise AssertionError(kind)


class TestExactnessFloor:
    """Streams of at most k samples reproduce numpy.percentile bit for bit."""

    @SETTINGS
    @given(
        samples=st.lists(
            st.floats(1e-6, 1e9), min_size=1, max_size=DEFAULT_K - 1
        ),
        pct=st.floats(0.0, 100.0),
    )
    def test_matches_numpy_before_first_compaction(self, samples, pct):
        sketch = QuantileSketch()
        sketch.extend(np.asarray(samples))
        assert sketch.percentile(pct) == float(np.percentile(samples, pct))

    def test_exact_moments_at_any_length(self):
        data = adversarial_stream("heavy-tail", 50_000, seed=1)
        sketch = QuantileSketch()
        sketch.extend(data)
        assert sketch.count == data.size
        assert sketch.minimum == float(data.min())
        assert sketch.maximum == float(data.max())
        assert sketch.mean() == pytest.approx(float(data.mean()), rel=1e-12)

    def test_extremes_exact_after_compaction(self):
        data = adversarial_stream("bimodal", 30_000, seed=2)
        sketch = QuantileSketch()
        sketch.extend(data)
        assert sketch.percentile(0.0) == float(data.min())
        assert sketch.percentile(100.0) == float(data.max())


class TestRankErrorBound:
    """The documented 1% normalised rank-error contract, adversarially."""

    @SETTINGS
    @given(
        kind=st.sampled_from(["bimodal", "heavy-tail", "constant", "sorted"]),
        n=st.integers(1_000, 120_000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_error_within_bound(self, kind, n, seed):
        data = adversarial_stream(kind, n, seed)
        sketch = QuantileSketch()
        sketch.extend(data)
        for pct in PCTS:
            err = normalised_rank_error(data, sketch.percentile(pct), pct)
            assert err <= RANK_ERROR_BOUND, (kind, n, pct, err)

    @SETTINGS
    @given(
        n=st.integers(1_000, 60_000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_percentiles_monotone_in_pct(self, n, seed):
        sketch = QuantileSketch()
        sketch.extend(adversarial_stream("heavy-tail", n, seed))
        values = [sketch.percentile(pct) for pct in PCTS]
        assert values == sorted(values)


class TestAddExtendEquivalence:
    """Satellite contract: extend() is a fast path, not a different sketch."""

    @SETTINGS
    @given(
        samples=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=3_000),
    )
    def test_same_percentiles_and_footprint(self, samples):
        one_by_one = QuantileSketch()
        for value in samples:
            one_by_one.add(value)
        bulk = QuantileSketch()
        bulk.extend(np.asarray(samples))
        assert bulk.count == one_by_one.count
        assert bulk.footprint() == one_by_one.footprint()
        for pct in PCTS:
            assert bulk.percentile(pct) == one_by_one.percentile(pct)

    def test_extend_accepts_plain_iterables(self):
        sketch = QuantileSketch()
        sketch.extend(range(100))
        other = QuantileSketch()
        other.extend(np.arange(100, dtype=np.float64))
        assert sketch.percentile(50.0) == other.percentile(50.0)


class _UncachedSketch(QuantileSketch):
    """The compaction loop without the capacity cache: every check
    recomputes ``_capacity(level)``.  The reference for the cached one."""

    __slots__ = ()

    def _compress(self):
        level = 0
        while level < len(self._levels):
            if len(self._levels[level]) >= self._capacity(level):
                self._compact(level)
                level = 0
            else:
                level += 1


_VALUES = st.floats(-1e6, 1e6, allow_nan=False)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _VALUES),
        st.tuples(st.just("extend"), st.lists(_VALUES, max_size=120)),
    ),
    min_size=1,
    max_size=40,
)


class TestCapacityCache:
    """The cached per-level capacities never go stale."""

    @SETTINGS
    @given(k=st.sampled_from([16, 24, 40]), operations=_OPERATIONS)
    def test_cache_tracks_levels_and_changes_nothing(self, k, operations):
        cached = QuantileSketch(k=k)
        reference = _UncachedSketch(k=k)
        for op, arg in operations:
            for sketch in (cached, reference):
                if op == "add":
                    sketch.add(arg)
                else:
                    sketch.extend(arg)
            assert cached._caps == [
                cached._capacity(level) for level in range(len(cached._levels))
            ]
            assert cached._levels == reference._levels
            assert cached.footprint() == reference.footprint()
            if cached.count:
                for pct in PCTS:
                    assert cached.percentile(pct) == reference.percentile(pct)


class TestFootprint:
    def test_bounded_for_million_sample_stream(self):
        # The whole point of the sketch tier: the retained set stays O(1)
        # while the stream grows without bound.
        sketch = QuantileSketch()
        rng = np.random.default_rng(3)
        for _ in range(10):
            sketch.extend(rng.pareto(1.05, 100_000) + 1.0)
        assert sketch.count == 1_000_000
        assert sketch.footprint() <= FOOTPRINT_BOUND

    def test_footprint_plateaus(self):
        sketch = QuantileSketch()
        rng = np.random.default_rng(4)
        sketch.extend(rng.random(50_000))
        at_50k = sketch.footprint()
        sketch.extend(rng.random(450_000))
        # 10x the samples, no meaningful footprint growth.
        assert sketch.footprint() <= max(at_50k * 2, FOOTPRINT_BOUND)


class TestValidation:
    def test_small_k_raises(self):
        with pytest.raises(ValueError, match="k must be"):
            QuantileSketch(k=8)

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="empty"):
            QuantileSketch().percentile(50.0)

    def test_out_of_range_pct_raises(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError, match="pct"):
            sketch.percentile(101.0)

    def test_empty_extremes_raise(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.minimum
        with pytest.raises(ValueError):
            sketch.maximum
        with pytest.raises(ValueError):
            sketch.mean()

    def test_repr_mentions_footprint(self):
        sketch = QuantileSketch()
        sketch.extend(np.arange(10, dtype=np.float64))
        assert "footprint" in repr(sketch)


class TestTrackerSketchMode:
    """PercentileTracker(mode='sketch'): same API, O(1) memory."""

    def test_mode_property_and_validation(self):
        assert PercentileTracker().mode == "exact"
        assert PercentileTracker(mode="sketch").mode == "sketch"
        with pytest.raises(ValueError, match="mode"):
            PercentileTracker(mode="approximate")

    def test_small_stream_matches_exact_bit_for_bit(self):
        # Below the first compaction the sketch tier *is* the exact tier.
        exact = PercentileTracker()
        sketch = PercentileTracker(mode="sketch")
        rng = np.random.default_rng(5)
        samples = rng.random(300)
        exact.extend(samples)
        sketch.extend(samples)
        for pct in PCTS:
            assert sketch.percentile(pct) == exact.percentile(pct)
        assert sketch.mean() == pytest.approx(exact.mean(), rel=1e-12)

    @SETTINGS
    @given(
        n=st.integers(2_000, 50_000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_large_stream_within_rank_error_bound(self, n, seed):
        data = adversarial_stream("bimodal", n, seed)
        tracker = PercentileTracker(mode="sketch")
        tracker.extend(data)
        for pct in (50.0, 95.0, 99.0):
            err = normalised_rank_error(data, tracker.percentile(pct), pct)
            assert err <= RANK_ERROR_BOUND

    def test_extend_equivalent_to_repeated_add(self):
        rng = np.random.default_rng(6)
        samples = rng.random(5_000)
        for mode in ("exact", "sketch"):
            bulk = PercentileTracker(mode=mode)
            bulk.extend(samples)
            slow = PercentileTracker(mode=mode)
            for value in samples:
                slow.add(value)
            assert bulk.count == slow.count
            for pct in PCTS:
                assert bulk.percentile(pct) == slow.percentile(pct)

    def test_memory_is_constant_in_stream_length(self):
        exact = PercentileTracker()
        sketch = PercentileTracker(mode="sketch")
        rng = np.random.default_rng(7)
        for _ in range(5):
            block = rng.random(100_000)
            exact.extend(block)
            sketch.extend(block)
        assert len(exact.samples()) == 500_000  # grows with the stream
        assert sketch._sketch.footprint() <= FOOTPRINT_BOUND  # does not

    def test_samples_unavailable_in_sketch_mode(self):
        tracker = PercentileTracker(mode="sketch")
        tracker.add(1.0)
        with pytest.raises(ValueError, match="sketch"):
            tracker.samples()
