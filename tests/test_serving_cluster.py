"""Tests for the fleet-scale cluster simulator, fleet tuning, and the sweep runner."""

import random

import pytest

from repro.core.hill_climber import coordinate_descent
from repro.core.offload_tuner import FleetKnobTuner
from repro.execution.engine import build_engine_pair
from repro.experiments.runner import SweepRunner, canonicalize, config_hash
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query, query_row
from repro.runtime.capacity import CapacitySearch
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulator,
    LeastOutstandingBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    WeightedLeastOutstandingBalancer,
    available_balancers,
    estimate_fleet_upper_bound_qps,
    get_balancer,
    heterogeneous_fleet,
    homogeneous_fleet,
)
from repro.serving.simulator import ServingConfig, ServingSimulator
from repro.serving.sla import SLATier, sla_target

ALL_POLICIES = (
    "random",
    "round-robin",
    "least-outstanding",
    "weighted-least-outstanding",
    "power-of-two",
    "failure-aware",
)


@pytest.fixture(scope="module")
def engines():
    return build_engine_pair("dlrm-rmc1", "skylake", None)


@pytest.fixture(scope="module")
def config():
    return ServingConfig(batch_size=256, num_cores=8)


@pytest.fixture(scope="module")
def query_stream():
    return LoadGenerator(seed=11).with_rate(900.0).generate(800)


class TestBalancerRegistry:
    def test_five_policies_registered(self):
        assert available_balancers() == sorted(ALL_POLICIES)

    def test_get_balancer_by_name(self):
        assert isinstance(get_balancer("random"), RandomBalancer)
        assert isinstance(get_balancer("round-robin"), RoundRobinBalancer)
        assert isinstance(get_balancer("least-outstanding"), LeastOutstandingBalancer)
        assert isinstance(
            get_balancer("weighted-least-outstanding"),
            WeightedLeastOutstandingBalancer,
        )
        assert isinstance(get_balancer("POWER-OF-TWO"), PowerOfTwoBalancer)

    def test_get_balancer_passthrough_instance(self):
        balancer = LeastOutstandingBalancer()
        assert get_balancer(balancer) is balancer

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown balancing policy"):
            get_balancer("random-drop")


class TestClusterPolicies:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_serves_whole_stream(self, engines, config, query_stream, policy):
        fleet = homogeneous_fleet(engines, config, 4)
        result = ClusterSimulator(fleet, policy).run(query_stream)
        assert result.policy == policy
        assert result.num_servers == 4
        assert result.num_queries == len(query_stream)
        assert sum(s.num_queries for s in result.per_server) == len(query_stream)
        assert sum(s.num_items for s in result.per_server) == sum(
            q.size for q in query_stream
        )
        assert 0.0 < result.p50_latency_s <= result.p95_latency_s <= result.p99_latency_s
        assert 0.0 < result.fleet_cpu_utilization <= 1.0
        assert all(s.num_queries > 0 for s in result.per_server)

    def test_round_robin_is_exactly_balanced(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 4)
        result = ClusterSimulator(fleet, "round-robin").run(query_stream)
        counts = [s.num_queries for s in result.per_server]
        assert max(counts) - min(counts) <= 1

    def test_least_outstanding_drains_to_faster_servers(self, engines):
        # One server has a quarter of the cores.  Near saturation, queues form
        # on it first, so load-aware balancing routes it a below-proportional
        # share of the stream; round-robin keeps feeding it regardless.
        slow = ClusterServer(engines, ServingConfig(batch_size=256, num_cores=2), "slow")
        fast = [
            ClusterServer(engines, ServingConfig(batch_size=256, num_cores=8), f"fast-{i}")
            for i in range(3)
        ]
        loaded = LoadGenerator(seed=11).with_rate(6000.0).generate(2000)
        least = ClusterSimulator([slow] + fast, "least-outstanding").run(loaded)
        rr = ClusterSimulator([slow] + fast, "round-robin").run(loaded)
        assert least.per_server[0].query_share < rr.per_server[0].query_share
        assert least.p95_latency_s < rr.p95_latency_s

    def test_power_of_two_is_seed_reproducible(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 4)
        first = ClusterSimulator(fleet, "power-of-two", balancer_seed=3).run(query_stream)
        second = ClusterSimulator(fleet, "power-of-two", balancer_seed=3).run(query_stream)
        assert [s.num_queries for s in first.per_server] == [
            s.num_queries for s in second.per_server
        ]
        assert first.p95_latency_s == second.p95_latency_s


class TestWeightedLeastOutstanding:
    def test_beats_unweighted_on_speed_spread_fleet(self):
        # On a fleet with a wide per-node speed spread, weighting each node's
        # outstanding items by its service-time multiplier routes less work
        # to slow nodes; near saturation that directly shows up in the tail.
        fleet = heterogeneous_fleet(
            "dlrm-rmc1", ServingConfig(batch_size=128, num_cores=8), 4,
            platform_mix={"skylake": 1.0}, speed_spread=0.3, rng=7,
        )
        stream = LoadGenerator(seed=11).with_rate(3600.0).generate(2000)
        weighted = ClusterSimulator(fleet, "weighted-least-outstanding").run(stream)
        unweighted = ClusterSimulator(fleet, "least-outstanding").run(stream)
        assert weighted.p95_latency_s < unweighted.p95_latency_s
        assert weighted.mean_latency_s < unweighted.mean_latency_s
        # The slowest node absorbs a smaller share under the weighted policy.
        slowest = max(
            range(len(fleet)), key=lambda i: fleet[i].engines.cpu.speed_factor
        )
        assert (
            weighted.per_server[slowest].query_share
            < unweighted.per_server[slowest].query_share
        )

    def test_reset_without_prepare_drops_stale_weights(self):
        # A prepared instance reused without a fresh prepare() (a bare load
        # vector, or pointed at a different same-size fleet) must fall back
        # to all-1.0 weights, not silently apply the old fleet's speed
        # factors.
        class StubEngine:
            def __init__(self, speed_factor):
                self.speed_factor = speed_factor

        balancer = WeightedLeastOutstandingBalancer()
        fleet = [
            ClusterServer(
                engines=type("P", (), {"cpu": StubEngine(factor)})(),
                config=ServingConfig(batch_size=64),
            )
            for factor in (2.0, 1.0)
        ]
        balancer.prepare(fleet)
        balancer.reset(2)
        # Prepared run: node 0 is twice as slow, so equal outstanding items
        # route to node 1.
        assert balancer.choose([10, 10]) == 1
        # Reused without prepare(): stale weights are dropped; ties break to
        # the lowest index exactly like least-outstanding.
        balancer.reset(2)
        assert balancer.choose([10, 10]) == 0

    def test_degenerates_to_least_outstanding_on_homogeneous_fleet(
        self, engines, config, query_stream
    ):
        # Unscaled engines weigh 1.0 per node, so the weighted policy's
        # decisions — and hence the whole run — match least-outstanding
        # exactly.
        fleet = homogeneous_fleet(engines, config, 4)
        weighted = ClusterSimulator(fleet, "weighted-least-outstanding").run(
            query_stream
        )
        plain = ClusterSimulator(fleet, "least-outstanding").run(query_stream)
        assert [s.num_queries for s in weighted.per_server] == [
            s.num_queries for s in plain.per_server
        ]
        assert weighted.p95_latency_s == plain.p95_latency_s
        assert weighted.latencies_s == plain.latencies_s


class TestRandomBalancer:
    def test_seed_reproducible(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 4)
        first = ClusterSimulator(fleet, "random", balancer_seed=9).run(query_stream)
        second = ClusterSimulator(fleet, "random", balancer_seed=9).run(query_stream)
        assert [s.num_queries for s in first.per_server] == [
            s.num_queries for s in second.per_server
        ]
        assert first.p95_latency_s == second.p95_latency_s

    def test_different_seeds_route_differently(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 4)
        first = ClusterSimulator(fleet, "random", balancer_seed=1).run(query_stream)
        second = ClusterSimulator(fleet, "random", balancer_seed=2).run(query_stream)
        assert [s.num_queries for s in first.per_server] != [
            s.num_queries for s in second.per_server
        ]

    def test_roughly_uniform_shares(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 4)
        result = ClusterSimulator(fleet, "random").run(query_stream)
        for summary in result.per_server:
            assert summary.query_share == pytest.approx(0.25, abs=0.08)

    def test_max_query_share_empty_returns_zero(self, engines, config, query_stream):
        # Regression: max() over an empty per_server list used to raise.
        result = ClusterSimulator(homogeneous_fleet(engines, config, 1), "random").run(
            query_stream
        )
        result.per_server = []
        assert result.max_query_share() == 0.0


class TestSeededDraws:
    """The seeded balancers draw exactly what ``Random.randrange`` would."""

    SEEDS = (0, 1, 9, 4242)
    DRAWS = 3000

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matches_randrange(self, seed):
        for count in range(1, 10):
            balancer = RandomBalancer(seed=seed)
            balancer.reset(count)
            reference = random.Random(seed)
            loads = [0] * count
            assert [balancer.choose(loads) for _ in range(self.DRAWS)] == [
                reference.randrange(count) for _ in range(self.DRAWS)
            ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_power_of_two_matches_randrange(self, seed):
        def reference_choice(rng, loads):
            count = len(loads)
            if count == 1:
                return 0
            first = rng.randrange(count)
            second = rng.randrange(count - 1)
            if second >= first:
                second += 1
            return second if loads[second] < loads[first] else first

        for count in range(1, 10):
            balancer = PowerOfTwoBalancer(seed=seed)
            balancer.reset(count)
            reference = random.Random(seed)
            # Distinct loads per draw, so the choice shows both draws.
            load_vectors = [
                random.Random(seed * 10 + count + draw).sample(range(100), count)
                for draw in range(self.DRAWS)
            ]
            assert [balancer.choose(loads) for loads in load_vectors] == [
                reference_choice(reference, loads) for loads in load_vectors
            ]


class TestDuplicateQueryIds:
    """In-flight state is keyed by arrival ordinal, so ids may repeat."""

    @staticmethod
    def _constant_ids(queries):
        return [Query(7, q.arrival_time, q.size) for q in queries]

    def test_serving_simulator(self, engines, config):
        queries = LoadGenerator(seed=3).with_rate(1500.0).generate(600)
        unique = ServingSimulator(engines, config).run(queries)
        repeated = ServingSimulator(engines, config).run(self._constant_ids(queries))
        assert repeated == unique

    @pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "straggler"])
    def test_cluster_simulator(self, engines, config, faulted):
        from repro.faults import FaultPlan, NodeFaultSchedule, StragglerEpisode

        queries = LoadGenerator(seed=3).with_rate(4000.0).generate(900)
        plan = None
        if faulted:
            episode = StragglerEpisode(0.05, 0.15, slowdown=4.0)
            plan = FaultPlan(nodes={0: NodeFaultSchedule(stragglers=(episode,))})
        fleet = homogeneous_fleet(engines, config, 2)
        unique = ClusterSimulator(fleet, "power-of-two", fault_plan=plan).run(queries)
        repeated = ClusterSimulator(fleet, "power-of-two", fault_plan=plan).run(
            self._constant_ids(queries)
        )
        assert repeated == unique
        assert (repeated.fault_stats is not None) == faulted


class TestPerServerLatencies:
    def test_collection_is_opt_in(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 2)
        plain = ClusterSimulator(fleet, "round-robin").run(query_stream)
        assert plain.per_server_latencies is None
        collected = ClusterSimulator(
            fleet, "round-robin", collect_per_server_latencies=True
        ).run(query_stream)
        assert collected.per_server_latencies is not None
        assert len(collected.per_server_latencies) == 2
        # Per-server slices partition the pooled measured latencies exactly.
        pooled = sorted(
            latency
            for slice_ in collected.per_server_latencies
            for latency in slice_
        )
        assert pooled == sorted(collected.latencies_s)
        assert collected.p95_latency_s == plain.p95_latency_s


class TestHeterogeneousFleetConstructor:
    def test_reproducible_from_seed(self):
        config = ServingConfig(batch_size=128, num_cores=8)
        first = heterogeneous_fleet("dlrm-rmc1", config, 6, rng=3)
        second = heterogeneous_fleet("dlrm-rmc1", config, 6, rng=3)
        assert [s.name for s in first] == [s.name for s in second]
        assert [s.engines.cpu.speed_factor for s in first] == [
            s.engines.cpu.speed_factor for s in second
        ]

    def test_platform_mix_and_speed_spread_respected(self):
        config = ServingConfig(batch_size=128, num_cores=8)
        fleet = heterogeneous_fleet(
            "dlrm-rmc1", config, 12, platform_mix={"skylake": 1.0}, speed_spread=0.1,
            rng=5,
        )
        assert all(s.engines.cpu.platform.name == "skylake" for s in fleet)
        factors = [s.engines.cpu.speed_factor for s in fleet]
        assert all(0.9 <= f <= 1.1 for f in factors)
        assert len(set(factors)) > 1

    def test_base_engine_shared_per_platform(self):
        config = ServingConfig(batch_size=128, num_cores=8)
        fleet = heterogeneous_fleet(
            "ncf", config, 8, platform_mix={"skylake": 0.5, "broadwell": 0.5}, rng=2
        )
        bases = {s.engines.cpu.platform.name: set() for s in fleet}
        for server in fleet:
            bases[server.engines.cpu.platform.name].add(id(server.engines.cpu.base_engine))
        assert all(len(ids) == 1 for ids in bases.values())

    def test_fleet_runs_on_fast_path(self, query_stream):
        config = ServingConfig(batch_size=128, num_cores=8)
        fleet = heterogeneous_fleet("dlrm-rmc1", config, 4, rng=7)
        result = ClusterSimulator(fleet, "least-outstanding").run(query_stream)
        assert result.num_queries == len(query_stream)

    def test_invalid_parameters(self):
        config = ServingConfig(batch_size=128)
        with pytest.raises(ValueError):
            heterogeneous_fleet("dlrm-rmc1", config, 0)
        with pytest.raises(ValueError):
            heterogeneous_fleet("dlrm-rmc1", config, 2, speed_spread=0.9)
        with pytest.raises(ValueError):
            heterogeneous_fleet("dlrm-rmc1", config, 2, platform_mix={"skylake": 0.0})


class TestHeterogeneousFleet:
    def test_mixed_cpu_gpu_fleet_offloads_large_queries(self, rmc1_engines, engines):
        gpu_config = ServingConfig(batch_size=256, num_cores=8, offload_threshold=256)
        cpu_config = ServingConfig(batch_size=256, num_cores=8)
        fleet = [
            ClusterServer(rmc1_engines, gpu_config, "gpu-0"),
            ClusterServer(engines, cpu_config, "cpu-0"),
        ]
        queries = LoadGenerator(seed=23).with_rate(600.0).generate(600)
        result = ClusterSimulator(fleet, "least-outstanding").run(queries)
        gpu_summary = result.per_server[0]
        cpu_summary = result.per_server[1]
        assert gpu_summary.gpu_work_fraction > 0.0
        assert gpu_summary.gpu_utilization > 0.0
        assert cpu_summary.gpu_work_fraction == 0.0
        assert result.num_queries == len(queries)

    def test_mixed_platform_fleet_runs(self, engines, query_stream):
        broadwell = build_engine_pair("dlrm-rmc1", "broadwell", None)
        fleet = [
            ClusterServer(engines, ServingConfig(batch_size=256, num_cores=8), "sky"),
            ClusterServer(broadwell, ServingConfig(batch_size=128, num_cores=8), "bdw"),
        ]
        result = ClusterSimulator(fleet, "power-of-two").run(query_stream)
        assert result.num_servers == 2
        assert all(s.num_queries > 0 for s in result.per_server)

    def test_invalid_fleet_rejected(self, engines):
        with pytest.raises(ValueError, match="at least one server"):
            ClusterSimulator([], "round-robin")
        bad = ClusterServer(engines, ServingConfig(batch_size=64, offload_threshold=32))
        with pytest.raises(ValueError, match="no accelerator"):
            ClusterSimulator([bad], "round-robin")


class TestSingleServerEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_cluster_of_one_matches_serving_simulator(
        self, engines, config, query_stream, policy
    ):
        single = ServingSimulator(engines, config).run(query_stream)
        cluster = ClusterSimulator(homogeneous_fleet(engines, config, 1), policy).run(
            query_stream
        )
        assert cluster.p50_latency_s == single.p50_latency_s
        assert cluster.p95_latency_s == single.p95_latency_s
        assert cluster.p99_latency_s == single.p99_latency_s
        assert cluster.mean_latency_s == single.mean_latency_s
        assert cluster.achieved_qps == single.achieved_qps
        assert cluster.offered_qps == single.offered_qps
        assert cluster.duration_s == single.duration_s
        assert cluster.drain_s == single.drain_s
        assert cluster.measured_queries == single.measured_queries
        assert cluster.per_server[0].cpu_utilization == single.cpu_utilization
        assert cluster.latencies_s == single.latencies_s


class TestFleetCapacity:
    def test_upper_bound_scales_with_fleet(self, engines, config):
        generator = LoadGenerator(seed=7)
        one = estimate_fleet_upper_bound_qps(homogeneous_fleet(engines, config, 1), generator)
        four = estimate_fleet_upper_bound_qps(homogeneous_fleet(engines, config, 4), generator)
        assert four == pytest.approx(4 * one)

    def test_fleet_capacity_grows_with_servers(self, engines, config):
        target = sla_target("dlrm-rmc1", SLATier.MEDIUM)
        generator = LoadGenerator(seed=7)
        outcomes = {
            n: CapacitySearch.for_fleet(
                homogeneous_fleet(engines, config, n), "least-outstanding",
                target.latency_s, generator, num_queries=150, iterations=3,
                max_queries=1500,
            ).run()
            for n in (1, 2)
        }
        assert outcomes[1].feasible and outcomes[2].feasible
        assert outcomes[2].max_qps > 1.5 * outcomes[1].max_qps
        assert outcomes[2].result.acceptable(target.latency_s)


class TestParallelCapacitySearch:
    SEARCH_KWARGS = dict(num_queries=100, iterations=3, max_queries=1000)

    def test_parallel_search_returns_same_qps_as_serial(self, engines, config):
        target = sla_target("dlrm-rmc1", SLATier.MEDIUM)
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 2)
        serial = CapacitySearch.for_fleet(
            fleet, "least-outstanding", target.latency_s, generator,
            **self.SEARCH_KWARGS,
        ).run()
        parallel = CapacitySearch.for_fleet(
            fleet, "least-outstanding", target.latency_s, generator,
            **self.SEARCH_KWARGS,
        ).run(jobs=2)
        # Speculative parallel bisection walks the identical decision tree,
        # so the outcome matches the serial search exactly — not approximately.
        assert parallel.max_qps == serial.max_qps
        assert parallel.result.p95_latency_s == serial.result.p95_latency_s
        assert parallel.result.measured_queries == serial.result.measured_queries

    def test_invalid_jobs_rejected(self, engines, config):
        with pytest.raises(ValueError, match="jobs"):
            CapacitySearch.for_fleet(
                homogeneous_fleet(engines, config, 1), "round-robin", 0.1,
                LoadGenerator(seed=7), **self.SEARCH_KWARGS,
            ).run(jobs=0)

    def test_warm_start_cache_replays_bit_identically(self, engines, config, tmp_path):
        target = sla_target("dlrm-rmc1", SLATier.MEDIUM)
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 2)
        serial = CapacitySearch.for_fleet(
            fleet, "least-outstanding", target.latency_s, generator,
            **self.SEARCH_KWARGS,
        ).run()
        cold = CapacitySearch.for_fleet(
            fleet, "least-outstanding", target.latency_s, generator,
            **self.SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        entries = list(tmp_path.glob("capacity-*.json"))
        assert len(entries) == 1
        warm = CapacitySearch.for_fleet(
            fleet, "least-outstanding", target.latency_s, generator,
            **self.SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        # The schema-versioned signature pins every decision input, so the
        # warm replay is exactly the cold serial search's outcome — not an
        # approximation.
        assert warm.max_qps == cold.max_qps == serial.max_qps
        assert warm.result.p95_latency_s == serial.result.p95_latency_s
        assert warm.result.measured_queries == serial.result.measured_queries
        assert warm.result.acceptable(target.latency_s)

    def test_warm_start_signature_distinguishes_workload_params(
        self, engines, config
    ):
        from repro.queries.size_dist import ProductionQuerySizes

        fleet = homogeneous_fleet(engines, config, 2)

        def signature(sizes):
            return CapacitySearch.for_fleet(
                fleet, "round-robin", 0.1, LoadGenerator(seed=7, sizes=sizes),
                num_queries=100, iterations=3, max_queries=1000,
            ).signature()

        heavy = signature(ProductionQuerySizes(body_median=95.0))
        light = signature(ProductionQuerySizes(body_median=5.0))
        assert heavy is not None and light is not None
        # Same distribution class, different parameters -> different cache
        # entries; a collision would replay the wrong workload's capacity.
        assert heavy != light
        assert signature(ProductionQuerySizes(body_median=95.0)) == heavy

    def test_warm_start_ignores_foreign_entries(self, engines, config, tmp_path):
        (tmp_path / "capacity-bogus.json").write_text("{not json")
        outcome = CapacitySearch.for_fleet(
            homogeneous_fleet(engines, config, 1), "round-robin",
            sla_target("dlrm-rmc1", SLATier.MEDIUM).latency_s, LoadGenerator(seed=7),
            **self.SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        assert outcome.feasible


class TestCoordinateDescent:
    def test_finds_separable_optimum(self):
        def objective(knobs):
            return -((knobs["x"] - 3) ** 2) - ((knobs["y"] - 20) ** 2)

        outcome = coordinate_descent(
            {"x": [1, 2, 3, 4, 5], "y": [10, 20, 30]}, objective, patience=2
        )
        assert outcome.best_knobs == {"x": 3, "y": 20}
        assert outcome.best_value == 0
        # Memoisation: no assignment is evaluated twice.
        seen = [tuple(sorted(k.items())) for k, _ in outcome.evaluations]
        assert len(seen) == len(set(seen))

    def test_rejects_empty_knobs(self):
        with pytest.raises(ValueError):
            coordinate_descent({}, lambda knobs: 0.0)
        with pytest.raises(ValueError):
            coordinate_descent({"x": []}, lambda knobs: 0.0)


class TestFleetKnobTuner:
    def test_tunes_batch_and_policy(self, engines):
        tuner = FleetKnobTuner(
            [engines, engines],
            LoadGenerator(seed=7),
            num_cores=8,
            num_queries=100,
            capacity_iterations=2,
            batch_candidates=[64, 256],
            policies=["round-robin", "least-outstanding"],
            sweeps=1,
        )
        target = sla_target("dlrm-rmc1", SLATier.MEDIUM)
        outcome = tuner.tune(target.latency_s)
        assert outcome.best_batch_size in (64, 256)
        assert outcome.best_policy in ("round-robin", "least-outstanding")
        assert outcome.best_threshold is None
        assert outcome.best_qps > 0
        assert outcome.num_evaluations >= 2

    def test_threshold_candidates_require_accelerator(self, engines):
        with pytest.raises(ValueError, match="no server has an accelerator"):
            FleetKnobTuner(
                [engines], LoadGenerator(seed=7), threshold_candidates=[128]
            )

    def test_accelerator_fleet_tunes_threshold_by_default(self, rmc1_engines):
        tuner = FleetKnobTuner(
            [rmc1_engines, rmc1_engines],
            LoadGenerator(seed=7),
            num_cores=8,
            num_queries=80,
            capacity_iterations=2,
            batch_candidates=[256],
            policies=["round-robin"],
            sweeps=1,
        )
        target = sla_target("dlrm-rmc1", SLATier.MEDIUM)
        outcome = tuner.tune(target.latency_s)
        # With an accelerator attached, the offload threshold is a tuned knob
        # even when no explicit candidates are given.
        assert outcome.best_threshold is not None
        assert outcome.best_qps > 0
        assert any("offload_threshold" in knobs for knobs, _ in outcome.evaluations)

    # Golden pins: exact tuned knobs and every evaluation, floats compared by
    # ``==``.  The CPU fleet's patience-1 batch ladder stops early and its
    # second sweep revisits the ladder under a new policy; the accelerator
    # fleet co-tunes three knobs over two sweeps.
    def _cpu_golden_tuner(self, engines, **overrides):
        options = dict(
            num_cores=4,
            num_queries=120,
            capacity_iterations=4,
            batch_candidates=[32, 128, 512, 1024, 2048, 4096],
            policies=["round-robin", "least-outstanding", "power-of-two"],
            sweeps=2,
            patience=1,
        )
        options.update(overrides)
        return FleetKnobTuner([engines, engines], LoadGenerator(seed=7), **options)

    def test_golden_cpu_fleet(self, engines):
        outcome = self._cpu_golden_tuner(engines).tune(
            sla_target("dlrm-rmc1", SLATier.LOW).latency_s
        )
        assert (outcome.best_batch_size, outcome.best_policy) == (512, "least-outstanding")
        assert outcome.best_threshold is None
        assert outcome.best_qps == 2845.610183121018
        assert outcome.evaluations == (
            ({"batch_size": 32, "policy": "round-robin"}, 1091.9968412777193),
            ({"batch_size": 128, "policy": "round-robin"}, 2086.7607086764147),
            ({"batch_size": 512, "policy": "round-robin"}, 2613.3906992652874),
            ({"batch_size": 1024, "policy": "round-robin"}, 2534.7935660669755),
            ({"batch_size": 512, "policy": "least-outstanding"}, 2845.610183121018),
            ({"batch_size": 512, "policy": "power-of-two"}, 2845.610183121018),
            ({"batch_size": 32, "policy": "least-outstanding"}, 1174.3870221166371),
            ({"batch_size": 128, "policy": "least-outstanding"}, 2086.7607086764147),
            ({"batch_size": 1024, "policy": "least-outstanding"}, 2781.9947961942503),
        )

    def test_golden_accelerator_fleet(self, rmc1_engines):
        tuner = FleetKnobTuner(
            [rmc1_engines, rmc1_engines],
            LoadGenerator(seed=7),
            num_cores=8,
            num_queries=80,
            capacity_iterations=2,
            batch_candidates=[128, 256, 512],
            policies=["round-robin", "least-outstanding"],
            threshold_candidates=[1, 64, 256],
            sweeps=2,
        )
        outcome = tuner.tune(sla_target("dlrm-rmc1", SLATier.MEDIUM).latency_s)
        assert (outcome.best_batch_size, outcome.best_policy) == (512, "round-robin")
        assert outcome.best_threshold == 256
        assert outcome.best_qps == 5550.503838482212
        rr, lo = "round-robin", "least-outstanding"
        assert outcome.evaluations == (
            ({"batch_size": 128, "policy": rr, "offload_threshold": 1}, 107.8955738278743),
            ({"batch_size": 256, "policy": rr, "offload_threshold": 1}, 124.47070228731158),
            ({"batch_size": 512, "policy": rr, "offload_threshold": 1}, 135.69865204133194),
            ({"batch_size": 512, "policy": lo, "offload_threshold": 1}, 135.69865204133194),
            ({"batch_size": 512, "policy": rr, "offload_threshold": 64}, 141.12943850961045),
            ({"batch_size": 512, "policy": rr, "offload_threshold": 256}, 5550.503838482212),
            ({"batch_size": 128, "policy": rr, "offload_threshold": 256}, 4646.903796544838),
            ({"batch_size": 256, "policy": rr, "offload_threshold": 256}, 5185.595471476551),
            ({"batch_size": 512, "policy": lo, "offload_threshold": 256}, 5550.503838482212),
        )

    def test_warm_start_cache_replays_a_second_run(self, engines, tmp_path, monkeypatch):
        from repro.core import offload_tuner
        from repro.runtime import capacity

        built = []

        class CountingCache(capacity.CapacityCache):
            def __init__(self, cache_dir):
                super().__init__(cache_dir)
                built.append(self)

        monkeypatch.setattr(capacity, "CapacityCache", CountingCache)
        monkeypatch.setattr(offload_tuner, "CapacityCache", CountingCache)
        tuner = self._cpu_golden_tuner(engines, warm_start_cache=tmp_path)
        sla = sla_target("dlrm-rmc1", SLATier.LOW).latency_s
        cold = tuner.tune(sla)
        assert len(built) == 1  # one cache instance serves every search
        warm = tuner.tune(sla)
        assert len(built) == 2
        assert warm == cold
        searches = cold.num_evaluations
        assert built[0].stats["stores"] == searches
        # Every search of the second run is a disk hit: no bisection, no store.
        assert built[1].stats["exact_hits"] == searches
        assert built[1].stats["exact_misses"] == built[1].stats["stores"] == 0

    @pytest.mark.parametrize(
        "overrides, error, match",
        [
            ({"policies": ["nope"]}, KeyError, "unknown balancing policy"),
            ({"policies": []}, ValueError, "policies"),
            ({"batch_candidates": []}, ValueError, "batch_candidates"),
            ({"sweeps": 0}, ValueError, "sweeps"),
            ({"patience": 0}, ValueError, "patience"),
        ],
        ids=[
            "unknown-policy", "no-policies", "no-batch-candidates", "zero-sweeps", "zero-patience"
        ],
    )
    def test_rejects_bad_input_at_construction(self, engines, overrides, error, match):
        with pytest.raises(error, match=match):
            FleetKnobTuner([engines], LoadGenerator(seed=7), **overrides)


class TestSweepRunnerCache:
    POINTS = [{"models": ("dlrm-rmc1",)}, {"models": ("ncf",)}]

    def test_cache_hits_on_rerun(self, tmp_path):
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        cold = runner.run("table-1", self.POINTS)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = runner.run("table-1", self.POINTS)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert [r.rows for r in warm.results] == [r.rows for r in cold.results]
        assert [r.experiment_id for r in warm.results] == ["table-1", "table-1"]

    def test_partial_cache_reuse(self, tmp_path):
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        runner.run("table-1", self.POINTS[:1])
        mixed = runner.run("table-1", self.POINTS)
        assert (mixed.cache_hits, mixed.cache_misses) == (1, 1)

    def test_parallel_workers_match_serial_results(self, tmp_path):
        serial = SweepRunner(processes=1).run("table-1", self.POINTS)
        parallel = SweepRunner(processes=2, cache_dir=tmp_path).run(
            "table-1", self.POINTS
        )
        assert [r.rows for r in parallel.results] == [r.rows for r in serial.results]
        assert parallel.processes == 2

    def test_without_cache_dir_everything_recomputes(self):
        runner = SweepRunner(processes=1)
        assert runner.run("table-1", self.POINTS[:1]).cache_misses == 1
        assert runner.run("table-1", self.POINTS[:1]).cache_misses == 1

    def test_duplicate_points_computed_once_per_run(self, tmp_path):
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        outcome = runner.run("table-1", [self.POINTS[0]] * 3)
        assert (outcome.cache_hits, outcome.cache_misses) == (2, 1)
        assert len(outcome.results) == 3
        assert outcome.results[0].rows == outcome.results[2].rows

    def test_uncacheable_kwargs_allowed_without_cache_dir(self):
        # Hashing only happens when a cache directory is configured, so
        # kwargs that cannot be canonicalised (here: a set) still sweep.
        point = {"models": {"ncf"}}
        outcome = SweepRunner(processes=1).run("table-1", [point])
        assert outcome.results[0].experiment_id == "table-1"
        with pytest.raises(TypeError, match="cannot canonicalise"):
            config_hash("table-1", point)

    def test_config_hash_is_stable_and_order_insensitive(self):
        first = config_hash("figure-9", {"a": 1, "b": (1, 2)})
        second = config_hash("FIGURE-9", {"b": [1, 2], "a": 1})
        assert first == second
        assert config_hash("figure-9", {"a": 2}) != first

    def test_config_hash_ignores_worker_budget(self):
        # `jobs` cannot change results, so it must not splinter the cache.
        assert config_hash("figure-15", {"jobs": 8, "seed": 5}) == config_hash(
            "figure-15", {"seed": 5}
        )

    def test_config_hash_ignores_capacity_cache_dir(self):
        # Warm starts replay bit-identical results, so the warm-start
        # directory is result-neutral and must not splinter the memo either.
        assert config_hash(
            "figure-15", {"capacity_cache_dir": "/tmp/a", "seed": 5}
        ) == config_hash("figure-15", {"seed": 5})

    def test_canonicalize_handles_enums_and_rejects_objects(self):
        assert canonicalize({"tier": SLATier.LOW}) == {"tier": "low"}
        with pytest.raises(TypeError, match="cannot canonicalise"):
            canonicalize(object())

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            SweepRunner(processes=1).run("table-1", [])


class TestRunStream:
    """run_stream: the constant-memory companion to run()."""

    def test_bit_identical_to_batch_run(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 4)
        batch = ClusterSimulator(fleet, "least-outstanding").run(query_stream)
        streamed = ClusterSimulator(fleet, "least-outstanding").run_stream(
            iter(query_stream), len(query_stream)
        )
        assert streamed.latencies_s == batch.latencies_s
        assert streamed.p95_latency_s == batch.p95_latency_s
        assert streamed.p95_late_window_s == batch.p95_late_window_s
        assert streamed.drain_s == batch.drain_s
        assert streamed.per_server == batch.per_server

    @pytest.mark.parametrize("latency_stats", ["exact", "sketch"])
    def test_query_stream_matches_batch_run(self, engines, config, latency_stats):
        # run_stream reads a QueryStream's rows; run() gets its records.
        from repro.queries.trace import count_diurnal_queries, iter_diurnal_trace

        fleet = homogeneous_fleet(engines, config, 4)
        trace = dict(base_rate_qps=400.0, duration_s=15.0, seed=5, time_step_s=2.0)
        total = count_diurnal_queries(**trace)
        batch = ClusterSimulator(
            fleet, "power-of-two", latency_stats=latency_stats
        ).run(list(iter_diurnal_trace(**trace)))
        streamed = ClusterSimulator(
            fleet, "power-of-two", latency_stats=latency_stats
        ).run_stream(iter_diurnal_trace(**trace), total)
        assert streamed.num_queries == total
        assert (
            streamed.p50_latency_s,
            streamed.p95_latency_s,
            streamed.p99_latency_s,
            streamed.mean_latency_s,
        ) == (
            batch.p50_latency_s,
            batch.p95_latency_s,
            batch.p99_latency_s,
            batch.mean_latency_s,
        )
        assert [s.num_queries for s in streamed.per_server] == [
            s.num_queries for s in batch.per_server
        ]
        # Every other field too, latencies_s included (empty in sketch mode).
        assert streamed == batch

    def test_query_stream_builds_no_query_records(self, engines, config, monkeypatch):
        from repro.queries.trace import count_diurnal_queries, iter_diurnal_trace

        built = []
        init = Query.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Query, "__init__", counting_init)
        fleet = homogeneous_fleet(engines, config, 2)
        total = count_diurnal_queries(120.0, 30.0, seed=9)
        result = ClusterSimulator(fleet, "least-outstanding").run_stream(
            iter_diurnal_trace(120.0, 30.0, seed=9), total
        )
        assert result.num_queries == total
        assert built == []
        # The counter does see records built by iterating the same stream.
        assert len(list(iter_diurnal_trace(120.0, 30.0, seed=9))) == total
        assert len(built) == total

    def test_early_exits_match_batch_run(self, engines, config):
        sla = 0.1
        fleet = homogeneous_fleet(engines, config, 1)
        from repro.serving.simulator import CertainRejection

        for rate in (200.0, 4000.0):
            queries = LoadGenerator(seed=5).with_rate(rate).generate(600)
            batch = ClusterSimulator(fleet, "least-outstanding").run(
                queries, reject_above_sla_s=sla
            )
            streamed = ClusterSimulator(fleet, "least-outstanding").run_stream(
                iter(queries), len(queries), reject_above_sla_s=sla
            )
            assert type(streamed) is type(batch)
            if isinstance(batch, CertainRejection):
                assert streamed == batch

    def test_chunked_diurnal_trace_streams_end_to_end(self, engines, config):
        from repro.queries.trace import count_diurnal_queries, iter_diurnal_trace

        fleet = homogeneous_fleet(engines, config, 2)
        total = count_diurnal_queries(120.0, 60.0, seed=9)
        result = ClusterSimulator(fleet, "least-outstanding").run_stream(
            iter_diurnal_trace(120.0, 60.0, seed=9), total
        )
        assert result.num_queries == total
        assert result.measured_queries == total - int(total * 0.1)

    def test_non_sequential_ids_match_batch_run(self, engines, config, query_stream):
        # The warmup window is the first arrivals consumed, not an id range,
        # so any distinct ids stream to the same result as run().
        fleet = homogeneous_fleet(engines, config, 2)
        renumbered = [
            Query(7 * (len(query_stream) - index), q.arrival_time, q.size)
            for index, q in enumerate(query_stream)
        ]
        batch = ClusterSimulator(fleet, "round-robin").run(renumbered)
        streamed = ClusterSimulator(fleet, "round-robin").run_stream(
            iter(renumbered), len(renumbered)
        )
        assert streamed == batch
        assert streamed.measured_queries == len(query_stream) - int(
            len(query_stream) * config.warmup_fraction
        )

    def test_unsorted_arrivals_rejected(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 2)
        swapped = list(query_stream)
        swapped[5] = Query(5, swapped[200].arrival_time, swapped[5].size)
        with pytest.raises(ValueError, match="pre-sorted"):
            ClusterSimulator(fleet, "round-robin").run_stream(
                iter(swapped), len(swapped)
            )

    def test_length_mismatch_rejected(self, engines, config, query_stream):
        fleet = homogeneous_fleet(engines, config, 2)
        with pytest.raises(ValueError, match="yielded"):
            ClusterSimulator(fleet, "round-robin").run_stream(
                iter(query_stream), len(query_stream) + 5
            )

    def test_empty_stream_rejected(self, engines, config):
        fleet = homogeneous_fleet(engines, config, 2)
        with pytest.raises(ValueError, match="empty"):
            ClusterSimulator(fleet, "round-robin").run_stream(iter([]), 1)


class TestSketchLatencyStats:
    """latency_stats='sketch': fixed-space statistics, same verdicts."""

    def test_p95_within_rank_error_of_exact(self, engines, config, query_stream):
        import numpy as np

        fleet = homogeneous_fleet(engines, config, 4)
        exact = ClusterSimulator(fleet, "least-outstanding").run(query_stream)
        sketched = ClusterSimulator(
            fleet, "least-outstanding", latency_stats="sketch"
        ).run(query_stream)
        # The documented contract: a sketch p95 is an exact percentile of
        # some rank within RANK_ERROR_BOUND of 95.
        low, high = np.percentile(exact.latencies_s, [94.0, 96.0])
        assert low <= sketched.p95_latency_s <= high
        assert sketched.mean_latency_s == pytest.approx(
            exact.mean_latency_s, rel=1e-9
        )
        assert sketched.measured_queries == exact.measured_queries
        assert sketched.latencies_s == []  # samples are not retained

    def test_stream_peak_memory_is_constant(self, engines, config):
        # The acceptance criterion for the sketch tier: streaming a trace
        # holds O(1) latency state, while the exact tier's buffer grows
        # linearly with the stream.
        import tracemalloc

        fleet = homogeneous_fleet(engines, config, 2)
        queries = LoadGenerator(seed=11).with_rate(900.0).generate(6000)

        def peak_bytes(latency_stats):
            simulator = ClusterSimulator(
                fleet, "least-outstanding", latency_stats=latency_stats
            )
            tracemalloc.start()
            simulator.run_stream(iter(queries), len(queries))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        exact_peak = peak_bytes("exact")
        sketch_peak = peak_bytes("sketch")
        # 6000 retained floats vs a bounded compactor hierarchy: the
        # sketch run must not pay per-sample memory.
        assert sketch_peak < exact_peak

    def test_sketch_rejects_per_server_collection(self, engines, config):
        fleet = homogeneous_fleet(engines, config, 2)
        with pytest.raises(ValueError, match="exact mode"):
            ClusterSimulator(
                fleet,
                "round-robin",
                latency_stats="sketch",
                collect_per_server_latencies=True,
            )

    def test_sketch_rejects_fault_plans(self, engines, config):
        from repro.faults import CrashWindow, FaultPlan, NodeFaultSchedule

        fleet = homogeneous_fleet(engines, config, 2)
        plan = FaultPlan(
            nodes={0: NodeFaultSchedule(crashes=(CrashWindow(0.1, 0.4),))}
        )
        with pytest.raises(ValueError, match="fault"):
            ClusterSimulator(
                fleet, "round-robin", latency_stats="sketch", fault_plan=plan
            )

    def test_sketch_rejects_open_ended_stream(self, engines, config):
        # An open-ended run retains every latency with its arrival ordinal,
        # so sketch mode would promise a fixed space it cannot keep.
        fleet = homogeneous_fleet(engines, config, 2)
        simulator = ClusterSimulator(fleet, "round-robin", latency_stats="sketch")
        with pytest.raises(ValueError, match="latency_stats='sketch'"):
            simulator.stream()

    def test_invalid_mode_rejected(self, engines, config):
        fleet = homogeneous_fleet(engines, config, 2)
        with pytest.raises(ValueError, match="latency_stats"):
            ClusterSimulator(fleet, "round-robin", latency_stats="histogram")


class TestSketchFlushSchedule:
    """Sketch-mode runs flush their latency chunks on a fixed schedule.

    Every ``_SKETCH_CHUNK`` measured samples, and exactly at the late-window
    start.  The flush points decide which samples the late-window sketch
    sees, and ``QuantileSketch.extend`` sums block by block, so they show in
    ``p95_late_window_s`` and in the last ulp of the mean.  A small prime
    chunk makes a short run flush many times, with the late-window start
    off a chunk edge; a spy on the trackers pins the flushed block sizes.
    """

    CHUNK = 97

    @pytest.fixture
    def sketch_trackers(self, monkeypatch):
        """Every sketch-mode tracker the event loop builds, logging blocks."""
        from repro.serving import simulator
        from repro.utils.stats import PercentileTracker

        monkeypatch.setattr(simulator, "_SKETCH_CHUNK", self.CHUNK)
        built = []

        class LoggingTracker(PercentileTracker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.blocks = []
                if self.mode == "sketch":
                    built.append(self)

            def extend(self, values):
                self.blocks.append(len(values))
                super().extend(values)

        monkeypatch.setattr(simulator, "PercentileTracker", LoggingTracker)
        return built

    def reference(self, latencies):
        """The documented schedule, fed from an exact run's samples."""
        import numpy as np

        from repro.utils.stats import PercentileTracker

        total = len(latencies)
        late_start = total // 2
        cuts = [
            *range(self.CHUNK, late_start, self.CHUNK),
            late_start,
            *range(late_start + self.CHUNK, total, self.CHUNK),
            total,
        ]
        tracker = PercentileTracker(mode="sketch")
        late = PercentileTracker(mode="sketch")
        blocks, late_blocks = [], []
        start = 0
        for end in cuts:
            block = np.asarray(latencies[start:end], dtype=np.float64)
            tracker.extend(block)
            blocks.append(end - start)
            if start >= late_start:
                late.extend(block)
                late_blocks.append(end - start)
            start = end
        stats = {
            "p50_latency_s": tracker.p50(),
            "p95_latency_s": tracker.p95(),
            "p99_latency_s": tracker.p99(),
            "mean_latency_s": tracker.mean(),
            "p95_late_window_s": late.percentile(95),
        }
        return stats, [blocks, late_blocks]

    def assert_matches_reference(self, result, trackers, exact):
        stats, blocks = self.reference(exact.latencies_s)
        assert result.measured_queries == exact.measured_queries
        assert [tracker.blocks for tracker in trackers] == blocks
        assert {name: getattr(result, name).hex() for name in stats} == {
            name: value.hex() for name, value in stats.items()
        }

    def test_run_stream_flushes_on_schedule(self, engines, config, sketch_trackers):
        fleet = homogeneous_fleet(engines, config, 4)
        queries = LoadGenerator(seed=11).with_rate(3200.0).generate(1500)
        exact = ClusterSimulator(fleet, "least-outstanding").run(queries)
        # 1350 measured samples: the late window starts at 675, mid-chunk.
        assert exact.measured_queries == 1350
        sketched = ClusterSimulator(
            fleet, "least-outstanding", latency_stats="sketch"
        ).run_stream(iter(queries), len(queries))
        self.assert_matches_reference(sketched, sketch_trackers, exact)
