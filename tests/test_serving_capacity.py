"""Tests for the latency-bounded capacity search."""

import pytest

from repro.execution.engine import build_engine_pair
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacitySearch, measurement_queries
from repro.serving.cluster import estimate_upper_bound_qps
from repro.serving.simulator import ServingConfig


@pytest.fixture(scope="module")
def engines():
    return build_engine_pair("dlrm-rmc1", "skylake", "gtx1080ti")


class TestMeasurementQueries:
    def test_scales_with_rate_and_sla(self):
        assert measurement_queries(1000.0, 0.1, 100, 10000) == 500
        assert measurement_queries(1000.0, 0.2, 100, 10000) == 1000

    def test_clamped_to_bounds(self):
        assert measurement_queries(10.0, 0.01, 200, 5000) == 200
        assert measurement_queries(1e6, 1.0, 200, 5000) == 5000

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            measurement_queries(0.0, 0.1, 100, 1000)


class TestUpperBound:
    def test_positive_and_scales_with_batch_efficiency(self, engines):
        small = estimate_upper_bound_qps(engines, ServingConfig(batch_size=8), 170.0)
        large = estimate_upper_bound_qps(engines, ServingConfig(batch_size=512), 170.0)
        assert small > 0
        assert large > small

    def test_gpu_offload_raises_bound(self, engines):
        cpu_only = estimate_upper_bound_qps(engines, ServingConfig(batch_size=256), 170.0)
        with_gpu = estimate_upper_bound_qps(
            engines,
            ServingConfig(batch_size=256, offload_threshold=256),
            170.0,
            large_query_fraction=0.2,
            mean_large_query_size=500.0,
        )
        assert with_gpu > cpu_only

    def test_invalid_mean_size(self, engines):
        with pytest.raises(ValueError):
            estimate_upper_bound_qps(engines, ServingConfig(batch_size=8), 0.0)


class TestFindMaxQps:
    def test_returns_feasible_operating_point(self, engines):
        generator = LoadGenerator(seed=2)
        outcome = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=256), sla_latency_s=0.1,
            load_generator=generator, num_queries=250, iterations=4,
        ).run()
        assert outcome.feasible
        assert outcome.max_qps > 0
        assert outcome.result.acceptable(0.1)

    def test_relaxed_sla_never_reduces_capacity(self, engines):
        generator = LoadGenerator(seed=2)
        tight = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=256), 0.05, generator, num_queries=250,
            iterations=4,
        ).run()
        relaxed = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=256), 0.15, generator, num_queries=250,
            iterations=4,
        ).run()
        assert relaxed.max_qps >= 0.8 * tight.max_qps

    def test_infeasible_sla_returns_zero(self, engines):
        # A microsecond-level p95 target cannot be met by any batch size.
        generator = LoadGenerator(seed=2)
        outcome = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=256), 1e-6, generator, num_queries=150,
            iterations=3,
        ).run()
        assert outcome.max_qps == 0.0
        assert not outcome.feasible

    def test_capacity_result_records_sla(self, engines):
        generator = LoadGenerator(seed=2)
        outcome = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=128), 0.1, generator, num_queries=200,
            iterations=3,
        ).run()
        assert outcome.sla_latency_s == 0.1

    def test_invalid_arguments(self, engines):
        generator = LoadGenerator(seed=2)
        with pytest.raises(ValueError):
            CapacitySearch.for_server(
                engines, ServingConfig(batch_size=64), 0.0, generator,
            ).run()
        with pytest.raises(ValueError):
            CapacitySearch.for_server(
                engines, ServingConfig(batch_size=64), 0.1, generator, num_queries=0,
            ).run()
