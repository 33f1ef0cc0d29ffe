"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hill_climber import hill_climb, power_of_two_candidates
from repro.execution.efficiency import SaturatingCurve
from repro.models.ops import EmbeddingGather, FullyConnected, OperatorCost
from repro.queries.query import Query
from repro.queries.size_dist import LognormalQuerySizes, ProductionQuerySizes
from repro.serving.request import num_requests, split_query
from repro.utils.stats import PercentileTracker, geometric_mean, percentile

# Keep examples modest so the suite stays fast and deterministic enough.
SETTINGS = settings(max_examples=60, deadline=None)


class TestSplitQueryProperties:
    @SETTINGS
    @given(size=st.integers(1, 5000), batch=st.integers(1, 2048))
    def test_split_conserves_items(self, size, batch):
        query = Query(0, 0.0, size)
        requests = split_query(query, batch)
        assert sum(r.batch_size for r in requests) == size

    @SETTINGS
    @given(size=st.integers(1, 5000), batch=st.integers(1, 2048))
    def test_split_respects_batch_bound(self, size, batch):
        requests = split_query(Query(0, 0.0, size), batch)
        assert all(1 <= r.batch_size <= batch for r in requests)

    @SETTINGS
    @given(size=st.integers(1, 5000), batch=st.integers(1, 2048))
    def test_request_count_formula(self, size, batch):
        requests = split_query(Query(0, 0.0, size), batch)
        assert len(requests) == num_requests(size, batch)
        assert len(requests) == -(-size // batch)

    @SETTINGS
    @given(size=st.integers(1, 5000), batch=st.integers(1, 2048))
    def test_indices_are_contiguous(self, size, batch):
        requests = split_query(Query(0, 0.0, size), batch)
        assert [r.index for r in requests] == list(range(len(requests)))


class TestStatsProperties:
    @SETTINGS
    @given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=200))
    def test_percentile_within_sample_range(self, samples):
        for pct in (0, 50, 95, 100):
            value = percentile(samples, pct)
            assert min(samples) <= value <= max(samples)

    @SETTINGS
    @given(st.lists(st.floats(0.001, 1e6), min_size=2, max_size=200))
    def test_percentiles_monotone_in_pct(self, samples):
        assert percentile(samples, 50) <= percentile(samples, 95) <= percentile(samples, 99)

    @SETTINGS
    @given(st.lists(st.floats(0.01, 1e4), min_size=1, max_size=100))
    def test_geometric_mean_bounded_by_extremes(self, values):
        gm = geometric_mean(values)
        assert min(values) * 0.999 <= gm <= max(values) * 1.001

    @SETTINGS
    @given(
        st.lists(st.floats(0.001, 1e3), min_size=1, max_size=40),
        st.integers(1, 4),
    )
    def test_tracker_buffer_growth_preserves_samples(self, samples, repeats):
        # Interleave add() and extend() past the initial buffer capacity and
        # check the recorded stream is exactly the inserted one, in order.
        tracker = PercentileTracker()
        expected = []
        for _ in range(repeats):
            tracker.extend(samples)
            expected.extend(samples)
            for value in samples:
                tracker.add(value)
            expected.extend(samples)
        padding = [0.5] * 300  # force at least one buffer doubling
        tracker.extend(padding)
        expected.extend(padding)
        assert tracker.samples() == expected
        assert tracker.percentile(50) == percentile(expected, 50)


class TestOperatorCostProperties:
    @SETTINGS
    @given(
        in_features=st.integers(1, 2048),
        out_features=st.integers(1, 2048),
        batch_a=st.integers(1, 512),
        batch_b=st.integers(1, 512),
    )
    def test_fc_flops_monotone_in_batch(self, in_features, out_features, batch_a, batch_b):
        op = FullyConnected("fc", in_features, out_features)
        small, large = sorted((batch_a, batch_b))
        assert op.cost(small).flops <= op.cost(large).flops

    @SETTINGS
    @given(
        tables=st.integers(1, 64),
        lookups=st.integers(1, 256),
        dim=st.integers(1, 128),
        batch=st.integers(1, 512),
    )
    def test_embedding_gather_bytes_scale_with_every_dimension(
        self, tables, lookups, dim, batch
    ):
        op = EmbeddingGather("emb", tables, 10_000, dim, lookups)
        cost = op.cost(batch)
        assert cost.irregular_bytes == batch * tables * lookups * dim * 4
        assert cost.total_bytes > 0

    @SETTINGS
    @given(
        flops=st.floats(0, 1e12),
        regular=st.floats(0, 1e12),
        irregular=st.floats(0, 1e12),
    )
    def test_cost_addition_commutative(self, flops, regular, irregular):
        a = OperatorCost(flops, regular, irregular)
        b = OperatorCost(irregular, flops, regular)
        assert (a + b).total_bytes == (b + a).total_bytes
        assert (a + b).flops == (b + a).flops


class TestEfficiencyCurveProperties:
    @SETTINGS
    @given(
        max_eff=st.floats(0.05, 1.0),
        half_sat=st.floats(0.5, 1024.0),
        batch_a=st.integers(1, 4096),
        batch_b=st.integers(1, 4096),
    )
    def test_curve_monotone_and_bounded(self, max_eff, half_sat, batch_a, batch_b):
        curve = SaturatingCurve(max_eff, half_sat, floor=min(0.01, max_eff))
        small, large = sorted((batch_a, batch_b))
        assert curve(small) <= curve(large) + 1e-12
        assert 0 < curve(large) <= max_eff


class TestQuerySizeProperties:
    @SETTINGS
    @given(count=st.integers(1, 2000), seed=st.integers(0, 1000))
    def test_production_samples_in_bounds(self, count, seed):
        sizes = ProductionQuerySizes().sample(count, rng=seed)
        assert sizes.shape == (count,)
        assert sizes.min() >= 1
        assert sizes.max() <= 1000

    @SETTINGS
    @given(count=st.integers(1, 2000), seed=st.integers(0, 1000))
    def test_lognormal_samples_in_bounds(self, count, seed):
        sizes = LognormalQuerySizes().sample(count, rng=seed)
        assert sizes.min() >= 1
        assert sizes.max() <= 1000


class TestHillClimberProperties:
    @SETTINGS
    @given(
        values=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=30),
        patience=st.integers(1, 5),
    )
    def test_best_value_is_max_of_evaluated(self, values, patience):
        candidates = list(range(len(values)))
        result = hill_climb(candidates, lambda i: values[i], patience=patience)
        evaluated = [value for _, value in result.evaluations]
        assert result.best_value == max(evaluated)
        assert values[result.best_candidate] == result.best_value

    @SETTINGS
    @given(minimum=st.integers(1, 100), span=st.integers(0, 2000))
    def test_power_of_two_candidates_sorted_and_bounded(self, minimum, span):
        maximum = minimum + span
        candidates = power_of_two_candidates(minimum, maximum)
        assert candidates[0] == minimum
        assert candidates[-1] == maximum
        assert all(b > a for a, b in zip(candidates, candidates[1:]))
        assert all(minimum <= c <= maximum for c in candidates)
