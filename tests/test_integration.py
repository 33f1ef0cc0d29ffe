"""End-to-end integration tests across the whole stack.

Each test stitches several subsystems together the way the paper's evaluation
does: model zoo -> engines -> load generator -> serving simulator ->
DeepRecSched, at strongly reduced fidelity so the suite stays quick.
"""

import pytest

import repro
from repro import (
    DeepRecSched,
    LoadGenerator,
    ServingConfig,
    ServingSimulator,
    SLATier,
    build_engine_pair,
    get_model,
)
from repro.core.static_scheduler import StaticSchedulerPolicy
from repro.infra import DatacenterCluster, DeepRecInfra, InfraConfig
from repro.runtime.capacity import CapacitySearch


class TestPublicAPI:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ("DeepRecSched", "DeepRecInfra", "LoadGenerator", "SLATier"):
            assert name in repro.__all__

    def test_model_inference_through_public_api(self):
        model = get_model("wnd", rng=0, materialized_rows=256)
        batch = model.sample_batch(4, rng=1)
        ctr = model.predict_ctr(batch)
        assert ctr.shape == (4,)


class TestServingPipeline:
    def test_generate_simulate_measure(self):
        engines = build_engine_pair("dien", "skylake", None)
        generator = LoadGenerator(seed=21)
        queries = generator.with_rate(400.0).generate(250)
        result = ServingSimulator(engines, ServingConfig(batch_size=128)).run(queries)
        assert result.measured_queries > 0
        assert 0 < result.p95_latency_s < 10.0
        assert 0 < result.cpu_utilization <= 1.0

    def test_capacity_consistent_with_direct_simulation(self):
        engines = build_engine_pair("ncf", "skylake", None)
        generator = LoadGenerator(seed=4)
        sla_s = 0.005
        capacity = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=64), sla_s, generator, num_queries=200,
            iterations=4,
        ).run()
        assert capacity.feasible
        # Re-simulating at the reported capacity meets the SLA.
        verification = ServingSimulator(engines, ServingConfig(batch_size=64)).run(
            generator.with_rate(capacity.max_qps).generate(200)
        )
        assert verification.p95_latency_s <= sla_s * 1.25

    def test_tuned_operating_point_beats_static_for_two_model_classes(self):
        for model in ("dlrm-rmc1", "wnd"):
            scheduler = DeepRecSched(
                model, gpu_platform=None, num_queries=150, capacity_iterations=3, seed=2
            )
            baseline = scheduler.baseline(SLATier.MEDIUM)
            tuned = scheduler.optimize_cpu(SLATier.MEDIUM)
            assert tuned.qps > baseline.qps


class TestInfraIntegration:
    def test_infra_capacity_with_gpu_offload(self):
        infra = DeepRecInfra(InfraConfig(model="dlrm-rmc1", seed=9))
        config = ServingConfig(batch_size=256, offload_threshold=384)
        capacity = infra.capacity(config, SLATier.MEDIUM, num_queries=150, iterations=3)
        assert capacity.max_qps > 0
        assert capacity.result.gpu_work_fraction > 0

    def test_cluster_uses_same_static_policy_as_scheduler(self):
        policy = StaticSchedulerPolicy()
        cluster = DatacenterCluster("dlrm-rmc3", num_nodes=3, seed=1)
        generator = LoadGenerator(seed=1)
        queries = generator.with_rate(60.0).generate(150)
        fixed_batch = policy.batch_size(cluster._engines[0].cpu.platform)
        result = cluster.run(queries, batch_size=fixed_batch)
        assert result.p95_latency_s > 0


class TestPaperHeadlineShapes:
    """Coarse checks that the headline result directions hold end to end."""

    @pytest.fixture(scope="class")
    def operating_points(self):
        scheduler = DeepRecSched(
            "dlrm-rmc1", num_queries=150, capacity_iterations=3, seed=13
        )
        baseline = scheduler.baseline(SLATier.MEDIUM)
        cpu = scheduler.optimize_cpu(SLATier.MEDIUM)
        gpu = scheduler.optimize_gpu(SLATier.MEDIUM, batch_size=cpu.batch_size)
        return baseline, cpu, gpu

    def test_throughput_ordering(self, operating_points):
        baseline, cpu, gpu = operating_points
        assert baseline.qps < cpu.qps < gpu.qps

    def test_cpu_speedup_in_plausible_band(self, operating_points):
        baseline, cpu, _ = operating_points
        assert 1.2 <= cpu.qps / baseline.qps <= 6.0

    def test_gpu_adds_further_speedup(self, operating_points):
        _, cpu, gpu = operating_points
        assert 1.05 <= gpu.qps / cpu.qps <= 4.0

    def test_gpu_handles_minority_of_queries_but_large_work_share(self, operating_points):
        _, _, gpu = operating_points
        assert 0.05 <= gpu.gpu_work_fraction <= 0.8
