"""Property tests for the streaming quantile sketch and its tracker mode.

These tests are the enforcement arm of the contract documented in
``repro.utils.sketch``: pre-compaction exactness, the normalised
rank-error bound on adversarial streams, merge order-independence of the
exactly-tracked moments, ``add``/``extend`` equivalence, and the O(1)
footprint that makes ``PercentileTracker(mode="sketch")`` safe for
million-query traces.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
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


class TestMerge:
    """Merging preserves exact moments and respects the error bound,
    independently of merge order."""

    @staticmethod
    def _parts(seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 20_000, size=3)
        kinds = ("bimodal", "heavy-tail", "sorted")
        return [
            adversarial_stream(kind, int(n), seed + i)
            for i, (kind, n) in enumerate(zip(kinds, sizes))
        ]

    @staticmethod
    def _sketch_of(data):
        sketch = QuantileSketch()
        sketch.extend(data)
        return sketch

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_merge_within_bound_of_union(self, seed):
        a, b, _ = self._parts(seed)
        merged = self._sketch_of(a)
        merged.merge(self._sketch_of(b))
        union = np.concatenate([a, b])
        assert merged.count == union.size
        for pct in PCTS:
            err = normalised_rank_error(union, merged.percentile(pct), pct)
            assert err <= RANK_ERROR_BOUND, (pct, err)

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_commutativity_of_exact_moments(self, seed):
        a, b, _ = self._parts(seed)
        ab = self._sketch_of(a)
        ab.merge(self._sketch_of(b))
        ba = self._sketch_of(b)
        ba.merge(self._sketch_of(a))
        union = np.concatenate([a, b])
        assert ab.count == ba.count == union.size
        assert ab.minimum == ba.minimum == float(union.min())
        assert ab.maximum == ba.maximum == float(union.max())
        assert ab.mean() == pytest.approx(ba.mean(), rel=1e-12)
        for pct in PCTS:
            for merged in (ab, ba):
                err = normalised_rank_error(union, merged.percentile(pct), pct)
                assert err <= RANK_ERROR_BOUND, (pct, err)

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_associativity_of_exact_moments(self, seed):
        a, b, c = self._parts(seed)
        left = self._sketch_of(a)
        left.merge(self._sketch_of(b))
        left.merge(self._sketch_of(c))
        bc = self._sketch_of(b)
        bc.merge(self._sketch_of(c))
        right = self._sketch_of(a)
        right.merge(bc)
        union = np.concatenate([a, b, c])
        assert left.count == right.count == union.size
        assert left.minimum == right.minimum == float(union.min())
        assert left.maximum == right.maximum == float(union.max())
        assert left.mean() == pytest.approx(right.mean(), rel=1e-12)
        for pct in PCTS:
            for merged in (left, right):
                err = normalised_rank_error(union, merged.percentile(pct), pct)
                assert err <= RANK_ERROR_BOUND, (pct, err)

    def test_merge_empty_is_noop(self):
        sketch = QuantileSketch()
        sketch.extend(np.arange(100, dtype=np.float64))
        before = sketch.percentile(50.0)
        sketch.merge(QuantileSketch())
        assert sketch.count == 100
        assert sketch.percentile(50.0) == before

    def test_merge_mismatched_k_raises(self):
        with pytest.raises(ValueError, match="k="):
            QuantileSketch(k=64).merge(QuantileSketch(k=128))

    def test_merge_self_raises(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="itself"):
            sketch.merge(sketch)


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
        st.tuples(st.just("merge"), st.lists(_VALUES, min_size=1, max_size=300)),
    ),
    min_size=1,
    max_size=40,
)


class TestCapacityCache:
    """The cached per-level capacities never go stale."""

    @SETTINGS
    @given(k=st.sampled_from([16, 24, 40]), operations=_OPERATIONS)
    # A merge that brings more levels than the receiver has, then one that
    # brings fewer: both must refresh every lower level's capacity.
    @example(
        k=16,
        operations=[
            ("add", 1.0),
            ("merge", [float(v) for v in range(200)]),
            ("merge", [0.5] * 20),
            ("extend", [2.5] * 100),
        ],
    )
    def test_cache_tracks_levels_and_changes_nothing(self, k, operations):
        cached = QuantileSketch(k=k)
        reference = _UncachedSketch(k=k)
        for op, arg in operations:
            for sketch in (cached, reference):
                if op == "add":
                    sketch.add(arg)
                elif op == "extend":
                    sketch.extend(arg)
                else:
                    other = QuantileSketch(k=k)
                    other.extend(arg)
                    sketch.merge(other)
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
        assert exact.footprint() == 500_000  # grows with the stream
        assert sketch.footprint() <= FOOTPRINT_BOUND  # does not

    def test_samples_unavailable_in_sketch_mode(self):
        tracker = PercentileTracker(mode="sketch")
        tracker.add(1.0)
        with pytest.raises(ValueError, match="sketch"):
            tracker.samples()

    def test_merge_requires_matching_modes(self):
        exact = PercentileTracker()
        sketch = PercentileTracker(mode="sketch")
        with pytest.raises(ValueError, match="mode"):
            exact.merge(sketch)

    def test_merge_combines_sketches(self):
        rng = np.random.default_rng(8)
        left_data = rng.random(3_000)
        right_data = rng.random(4_000) + 1.0
        left = PercentileTracker(mode="sketch")
        left.extend(left_data)
        right = PercentileTracker(mode="sketch")
        right.extend(right_data)
        left.merge(right)
        union = np.concatenate([left_data, right_data])
        assert left.count == union.size
        err = normalised_rank_error(union, left.percentile(95.0), 95.0)
        assert err <= RANK_ERROR_BOUND

    def test_reset_rebuilds_sketch(self):
        tracker = PercentileTracker(mode="sketch")
        tracker.extend(np.arange(1_000, dtype=np.float64))
        tracker.reset()
        assert tracker.count == 0
        tracker.extend(np.asarray([5.0, 10.0, 15.0]))
        assert tracker.percentile(50.0) == 10.0
