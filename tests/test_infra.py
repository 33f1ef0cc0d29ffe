"""Tests for the DeepRecInfra facade and the datacenter cluster simulation."""

import pytest

from repro.execution.engine import EnginePair, build_cpu_engine
from repro.infra.datacenter import ClusterResult, DatacenterCluster, ScaledCPUEngine
from repro.infra.deeprecinfra import DeepRecInfra, InfraConfig
from repro.queries.generator import LoadGenerator
from repro.queries.trace import DiurnalPattern
from repro.serving.simulator import ServingConfig, ServingSimulator
from repro.serving.sla import SLATier


class TestInfraConfig:
    def test_defaults(self):
        config = InfraConfig()
        assert config.model == "dlrm-rmc1"
        assert config.cpu_platform == "skylake"
        assert config.arrival_process == "poisson"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            InfraConfig(model="gpt-2")

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            InfraConfig(num_cores=-1)


class TestDeepRecInfra:
    @pytest.fixture(scope="class")
    def infra(self):
        return DeepRecInfra(InfraConfig(model="ncf", seed=5))

    def test_engines_match_config(self, infra):
        assert infra.engines.cpu.model.name == "ncf"
        assert infra.engines.has_accelerator

    def test_cpu_only_configuration(self):
        infra = DeepRecInfra(InfraConfig(model="ncf", gpu_platform=None))
        assert not infra.engines.has_accelerator

    def test_sla_tiers(self, infra):
        assert infra.sla(SLATier.MEDIUM).latency_ms == pytest.approx(5.0)
        assert infra.sla(SLATier.LOW).latency_ms == pytest.approx(2.5)

    def test_model_config_access(self, infra):
        assert infra.model_config.name == "ncf"

    def test_generate_queries(self, infra):
        queries = infra.generate_queries(num_queries=50, rate_qps=500.0)
        assert len(queries) == 50
        assert all(q.size >= 1 for q in queries)

    def test_simulate_and_capacity(self, infra):
        queries = infra.generate_queries(num_queries=120, rate_qps=300.0)
        result = infra.simulate(ServingConfig(batch_size=64), queries)
        assert result.p95_latency_s > 0
        capacity = infra.capacity(
            ServingConfig(batch_size=64), SLATier.MEDIUM, num_queries=120, iterations=3
        )
        assert capacity.max_qps > 0

    def test_distribution_choices_respected(self):
        infra = DeepRecInfra(
            InfraConfig(model="ncf", arrival_process="fixed", size_distribution="normal")
        )
        queries = infra.generate_queries(num_queries=20, rate_qps=100.0)
        gaps = [
            b.arrival_time - a.arrival_time for a, b in zip(queries, queries[1:])
        ]
        assert max(gaps) == pytest.approx(min(gaps))


class TestScaledCPUEngine:
    def test_scaling_applied(self):
        base = build_cpu_engine("ncf", "skylake")
        scaled = ScaledCPUEngine(base, speed_factor=1.5)
        assert scaled.request_latency_s(64) == pytest.approx(
            1.5 * base.request_latency_s(64)
        )
        assert scaled.platform is base.platform

    def test_invalid_factor(self):
        base = build_cpu_engine("ncf", "skylake")
        with pytest.raises(ValueError):
            ScaledCPUEngine(base, speed_factor=0.0)


class TestDatacenterCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        return DatacenterCluster("dlrm-rmc1", num_nodes=6, seed=7)

    @pytest.fixture(scope="class")
    def cluster_result(self, cluster) -> ClusterResult:
        generator = LoadGenerator(seed=7)
        queries = generator.with_rate(240.0).generate(600)
        return cluster.run(queries, batch_size=128)

    def test_node_heterogeneity(self, cluster):
        platforms = {node.platform_name for node in cluster.nodes}
        speeds = {node.speed_factor for node in cluster.nodes}
        assert cluster.num_nodes == 6
        assert platforms <= {"skylake", "broadwell"}
        assert len(speeds) > 1

    def test_all_nodes_receive_traffic(self, cluster_result):
        assert cluster_result.num_nodes == 6
        assert all(
            result.measured_queries > 0
            for result in cluster_result.per_node_results.values()
        )

    def test_percentile_ordering(self, cluster_result):
        assert (
            cluster_result.p50_latency_s
            <= cluster_result.p95_latency_s
            <= cluster_result.p99_latency_s
        )

    def test_subsample_tracks_fleet(self, cluster_result):
        # The Fig. 7 claim, with a generous bound for the small simulated fleet.
        gap = cluster_result.subsample_gap([0, 1, 2])
        assert gap < 0.35

    def test_unknown_node_raises(self, cluster_result):
        with pytest.raises(KeyError):
            cluster_result.node_latencies([999])

    def test_diurnal_run(self, cluster):
        result = cluster.run_diurnal(
            batch_size=128,
            base_rate_qps=200.0,
            duration_s=30.0,
            pattern=DiurnalPattern(amplitude=0.3, period_s=30.0),
            seed=1,
        )
        assert result.p95_latency_s > 0

    def test_tuned_batch_reduces_tail_latency(self):
        # The Fig. 13 protocol at miniature scale: near saturation, the fixed
        # production batch size produces worse tails than a tuned batch size
        # under the same traffic.
        cluster = DatacenterCluster(
            "dlrm-rmc1", num_nodes=1, num_cores=12,
            platform_mix={"skylake": 1.0}, seed=3,
        )
        common = dict(base_rate_qps=2200.0, duration_s=4.0, seed=5)
        fixed = cluster.run_diurnal(batch_size=84, **common)
        tuned = cluster.run_diurnal(batch_size=512, **common)
        assert fixed.p95_latency_s > tuned.p95_latency_s

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DatacenterCluster("dlrm-rmc1", num_nodes=0)
        with pytest.raises(ValueError):
            DatacenterCluster("dlrm-rmc1", num_nodes=2, speed_spread=0.9)
        cluster = DatacenterCluster("dlrm-rmc1", num_nodes=2, seed=0)
        with pytest.raises(ValueError):
            cluster.run([], batch_size=64)


class TestClusterSimulatorUnification:
    """The datacenter fleet runs as one shared-heap ClusterSimulator pass."""

    @pytest.fixture(scope="class")
    def queries(self):
        return LoadGenerator(seed=13).with_rate(400.0).generate(400)

    def test_single_node_matches_serving_simulator_exactly(self, queries):
        # With one node, every balancing policy degenerates to pass-through
        # and the unified path must reproduce the single-server simulator's
        # measurements bit for bit (the "legacy path" equivalence).
        cluster = DatacenterCluster(
            "dlrm-rmc1", num_nodes=1, num_cores=8,
            platform_mix={"skylake": 1.0}, seed=11,
        )
        node = cluster.nodes[0]
        outcome = cluster.run(queries, batch_size=128, warmup_fraction=0.05)
        scaled = ScaledCPUEngine(
            build_cpu_engine("dlrm-rmc1", node.platform_name), node.speed_factor
        )
        config = ServingConfig(batch_size=128, num_cores=8, warmup_fraction=0.05)
        single = ServingSimulator(EnginePair(cpu=scaled, gpu=None), config).run(queries)
        assert outcome.p50_latency_s == single.p50_latency_s
        assert outcome.p95_latency_s == single.p95_latency_s
        assert outcome.p99_latency_s == single.p99_latency_s
        assert sorted(outcome.latencies_s) == sorted(single.latencies_s)
        node_result = outcome.per_node_results[0]
        assert node_result.measured_queries == single.measured_queries
        assert node_result.cpu_utilization == single.cpu_utilization

    def test_warmup_is_fleet_wide(self, queries):
        # 400 queries over 6 nodes: the legacy per-node warmup floored to
        # int(~66 * 0.01) = 0 on every node; the fleet-wide window drops the
        # first 1 % of the stream by global arrival order exactly once.
        cluster = DatacenterCluster("dlrm-rmc1", num_nodes=6, seed=7)
        outcome = cluster.run(queries, batch_size=128, warmup_fraction=0.01)
        measured = sum(
            result.measured_queries for result in outcome.per_node_results.values()
        )
        assert measured == len(queries) - int(len(queries) * 0.01)

    def test_policy_selectable_and_recorded(self, queries):
        cluster = DatacenterCluster("dlrm-rmc1", num_nodes=4, seed=5)
        random_run = cluster.run(queries, batch_size=128)
        balanced = cluster.run(queries, batch_size=128, policy="least-outstanding")
        assert random_run.policy == "random"
        assert balanced.policy == "least-outstanding"
        assert balanced.fleet is not None
        assert balanced.fleet.max_query_share() <= 1.0
        with pytest.raises(KeyError, match="unknown balancing policy"):
            cluster.run(queries, batch_size=128, policy="no-such-policy")

    def test_query_shares_sum_to_one(self, queries):
        cluster = DatacenterCluster("dlrm-rmc1", num_nodes=4, seed=5)
        shares = cluster.run(queries, batch_size=128).query_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_diurnal_seed_follows_cluster_seed(self):
        kwargs = dict(batch_size=128, base_rate_qps=150.0, duration_s=20.0)
        first = DatacenterCluster("ncf", num_nodes=2, seed=1)
        second = DatacenterCluster("ncf", num_nodes=2, seed=2)
        replay_a = first.run_diurnal(**kwargs)
        replay_b = first.run_diurnal(**kwargs)
        other = second.run_diurnal(**kwargs)
        # Same cluster: the derived trace seed is stable across calls.
        assert replay_a.latencies_s == replay_b.latencies_s
        # Different cluster seeds no longer silently share one trace.
        assert replay_a.latencies_s != other.latencies_s
        # An explicit seed still pins one trace across clusters.
        pinned_a = first.run_diurnal(seed=99, **kwargs)
        pinned_b = second.run_diurnal(seed=99, **kwargs)
        assert pinned_a.fleet.num_queries == pinned_b.fleet.num_queries
