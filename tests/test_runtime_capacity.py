"""Tests for the unified capacity search (repro.runtime.capacity).

The contract under test: the parallel path and the warm-start replay are
*decision-identical* to the cold serial search — same max QPS, same result
object, bit for bit — so callers choose them purely on wall-clock grounds.
"""

import json

import pytest

from repro.execution.engine import build_engine_pair
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import (
    CAPACITY_SCHEMA_VERSION,
    CapacityCache,
    CapacitySearch,
    run_capacity_searches,
)
from repro.runtime.pool import WorkerPool, pool_forks
from repro.serving.cluster import PowerOfTwoBalancer, RandomBalancer, homogeneous_fleet
from repro.serving.simulator import ServingConfig

SEARCH_KWARGS = dict(num_queries=100, iterations=3, max_queries=1000)


@pytest.fixture(scope="module")
def engines():
    return build_engine_pair("dlrm-rmc1", "skylake", None)


@pytest.fixture(scope="module")
def config():
    return ServingConfig(batch_size=256, num_cores=8)


class TestSingleServerDecisionIdentity:
    """Mirror of the cluster-side tests for the single-server search."""

    def test_parallel_search_bit_identical_to_serial(self, engines, config):
        generator = LoadGenerator(seed=7)
        serial = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run()
        parallel = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(jobs=2)
        assert parallel.max_qps == serial.max_qps
        assert parallel.result.p95_latency_s == serial.result.p95_latency_s
        assert parallel.result.measured_queries == serial.result.measured_queries
        assert parallel.result.latencies_s == serial.result.latencies_s

    def test_warm_start_bit_identical_to_cold_serial(self, engines, config, tmp_path):
        generator = LoadGenerator(seed=7)
        serial = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run()
        cold = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        assert list(tmp_path.glob("capacity-*.json"))
        warm = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        assert warm.max_qps == cold.max_qps == serial.max_qps
        assert warm.result.p95_latency_s == serial.result.p95_latency_s
        assert warm.result.latencies_s == serial.result.latencies_s

    def test_warm_parallel_combination_bit_identical(self, engines, config, tmp_path):
        generator = LoadGenerator(seed=7)
        serial = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run()
        first = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(jobs=2, warm_start_cache=tmp_path)
        second = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(jobs=2, warm_start_cache=tmp_path)
        assert first.max_qps == second.max_qps == serial.max_qps

    def test_unbracketed_exit_replays_bit_identically(
        self, engines, config, tmp_path
    ):
        # With a very relaxed SLA every bracket raise stays acceptable, so
        # the search exits through the "unbracketed" path.  The reported
        # result must still correspond to max_qps, and the warm replay must
        # reproduce it bit for bit (regression: the unbracketed exit used to
        # attach a result measured at max_qps / 1.6).
        generator = LoadGenerator(seed=7)
        serial = CapacitySearch.for_server(
            engines, config, 30.0, generator, **SEARCH_KWARGS,
        ).run()
        cold = CapacitySearch.for_server(
            engines, config, 30.0, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        warm = CapacitySearch.for_server(
            engines, config, 30.0, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        parallel = CapacitySearch.for_server(
            engines, config, 30.0, generator, **SEARCH_KWARGS,
        ).run(jobs=2)
        assert warm.max_qps == cold.max_qps == serial.max_qps
        assert parallel.max_qps == serial.max_qps
        assert warm.result.p95_latency_s == cold.result.p95_latency_s
        assert warm.result.p95_latency_s == serial.result.p95_latency_s
        assert parallel.result.p95_latency_s == serial.result.p95_latency_s
        assert warm.result.measured_queries == serial.result.measured_queries

    def test_invalid_jobs_rejected(self, engines, config):
        with pytest.raises(ValueError, match="jobs"):
            CapacitySearch.for_server(
                engines, config, 0.1, LoadGenerator(seed=7), **SEARCH_KWARGS,
            ).run(jobs=0)

    def test_stale_cache_entry_falls_back_to_cold_search(
        self, engines, config, tmp_path
    ):
        generator = LoadGenerator(seed=7)
        serial = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run()
        CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        (entry,) = tmp_path.glob("capacity-*.json")
        # Corrupt the recorded capacity to an unsustainable rate: the replay
        # verification must reject it and re-run the full cold search.
        payload = json.loads(entry.read_text())
        payload["max_qps"] = serial.max_qps * 50.0
        entry.write_text(json.dumps(payload))
        recovered = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        assert recovered.max_qps == serial.max_qps


class TestCorruptCacheEntries:
    """A rotten cache entry is a visible miss, never a crash or a wrong answer."""

    def test_garbage_json_entry_falls_back_to_cold_search(
        self, engines, config, tmp_path
    ):
        generator = LoadGenerator(seed=7)
        serial = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run()
        CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS,
        ).run(warm_start_cache=tmp_path)
        (entry,) = tmp_path.glob("capacity-*.json")
        for text in (
            "{ not json at all",
            '{"max_qps": Infinity}',  # overflowed the measurement size
            '{"max_qps": "1e999"}',
            '{"max_qps": true}',  # replayed 1.0 qps as the capacity
            '{"max_qps": NaN}',
            '{"max_qps": -5.0}',
        ):
            entry.write_text(text)
            cache = CapacityCache(tmp_path)
            recovered = CapacitySearch.for_server(
                engines, config, 0.1, generator, **SEARCH_KWARGS,
            ).run(warm_start_cache=cache)
            assert recovered.max_qps == serial.max_qps, text
            assert recovered.result.latencies_s == serial.result.latencies_s
            assert cache.stats["corrupt_entries"] == 1, text
            assert cache.stats["exact_hits"] == 0

    def test_wrong_shape_entry_counts_as_corrupt(self, tmp_path):
        signature = {"kind": "server", "num_queries": 100}
        path = tmp_path / f"capacity-{CapacityCache.digest(signature)}.json"
        # Anything but a finite positive real (a bool included) is corrupt.
        for max_qps in ("not-a-number", float("inf"), "1e999", True, float("nan"),
                        -5.0, 0, 10**400):
            cache = CapacityCache(tmp_path)
            path.write_text(json.dumps({"max_qps": max_qps}))
            assert cache.load(signature) is None
            assert cache.stats == {
                **{key: 0 for key in cache.stats},
                "exact_misses": 1,
                "corrupt_entries": 1,
            }, max_qps

    def test_deeply_nested_entry_counts_as_corrupt(self, tmp_path):
        # json.loads raises RecursionError on this; it is a counted miss.
        signature = {"kind": "server", "num_queries": 100}
        path = tmp_path / f"capacity-{CapacityCache.digest(signature)}.json"
        path.write_text('{"max_qps": ' + "[" * 100_000 + "]" * 100_000 + "}")
        cache = CapacityCache(tmp_path)
        assert cache.load(signature) is None
        assert cache.stats == {
            **{key: 0 for key in cache.stats},
            "exact_misses": 1,
            "corrupt_entries": 1,
        }

    def test_missing_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        cache = CapacityCache(tmp_path)
        assert cache.load({"kind": "server"}) is None
        assert cache.stats["corrupt_entries"] == 0
        assert cache.stats["exact_misses"] == 1


class TestSharedPoolReuse:
    def test_explicit_pool_shared_across_searches(self, engines, config, monkeypatch):
        # Force the parallel path regardless of the host's core count — the
        # in-flight budget is clamped by physical cores, so a one-core host
        # would (correctly) run these searches serially otherwise.
        import repro.runtime.capacity as runtime_capacity

        monkeypatch.setattr(runtime_capacity, "_host_cores", lambda: 2)
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 2)
        serial = CapacitySearch.for_fleet(
            fleet, "least-outstanding", 0.1, generator, **SEARCH_KWARGS,
        ).run()
        before = pool_forks()
        with WorkerPool(2) as pool:
            first = CapacitySearch.for_fleet(
                fleet, "least-outstanding", 0.1, generator, **SEARCH_KWARGS,
            ).run(jobs=2, pool=pool)
            second = CapacitySearch.for_server(
                engines, config, 0.1, generator, **SEARCH_KWARGS,
            ).run(jobs=2, pool=pool)
        # One fork served both the fleet and the single-server search.
        assert pool_forks() == before + 1
        assert first.max_qps == serial.max_qps
        assert first.result.latencies_s == serial.result.latencies_s
        assert second.feasible


class TestSignatures:
    def test_schema_version_recorded(self, engines, config):
        signature = CapacitySearch.for_server(
            engines, config, 0.1, LoadGenerator(seed=7), **SEARCH_KWARGS
        ).signature()
        assert signature is not None
        assert signature["schema"] == CAPACITY_SCHEMA_VERSION
        assert signature["search"] == "server"

    def test_server_and_fleet_of_one_do_not_collide(self, engines, config):
        generator = LoadGenerator(seed=7)
        server = CapacitySearch.for_server(
            engines, config, 0.1, generator, **SEARCH_KWARGS
        ).signature()
        fleet = CapacitySearch.for_fleet(
            homogeneous_fleet(engines, config, 1), "round-robin", 0.1, generator,
            **SEARCH_KWARGS,
        ).signature()
        assert CapacityCache.digest(server) != CapacityCache.digest(fleet)

    def test_modified_platform_same_name_gets_distinct_signature(self, config):
        # The cache-contention ablation builds a Broadwell with the LLC
        # contention slope zeroed but the stock name; signing only the
        # platform *name* would collide it with stock Broadwell and replay
        # the wrong capacity.
        from dataclasses import replace

        from repro.execution.cpu_engine import CPUEngine
        from repro.execution.engine import EnginePair
        from repro.hardware.cache import CacheHierarchy
        from repro.hardware.cpu import get_cpu

        generator = LoadGenerator(seed=7)
        stock = build_engine_pair("dlrm-rmc1", "broadwell", None)
        cpu = get_cpu("broadwell")
        modified_platform = replace(
            cpu,
            cache=CacheHierarchy(
                policy=cpu.cache.policy,
                llc_bytes=cpu.cache.llc_bytes,
                contention_slope=0.0,
            ),
        )
        modified = EnginePair(cpu=CPUEngine(stock.cpu.model, modified_platform))

        def signature(pair):
            return CapacitySearch.for_server(
                pair, config, 0.1, generator, **SEARCH_KWARGS
            ).signature()

        assert signature(stock) != signature(modified)

    def test_unserialisable_workload_skips_caching(self, engines, config, tmp_path):
        class OpaqueSizes:
            """A size distribution whose state defeats canonical signing."""

            def __init__(self):
                self.blob = object()

            def mean(self):
                return 170.0

            def sample(self, count, rng=None):
                import numpy as np

                return np.full(count, 170)

        search = CapacitySearch.for_server(
            engines, config, 0.1,
            LoadGenerator(seed=7, sizes=OpaqueSizes()), **SEARCH_KWARGS,
        )
        assert search.signature() is None


class TestCacheKeyGolden:
    """Warm-start entry names pinned across refactors of the search.

    An entry's file name is the digest of its search's signature, so a
    refactor that changes any signature field (or its encoding) silently
    orphans every existing cache.  The digests below must stay put for as
    long as :data:`CAPACITY_SCHEMA_VERSION` does: a change that moves one
    must bump the schema, so stale entries miss instead of replaying.
    """

    GOLDEN_DIGESTS = {
        "server": "b3f1d612ed3a36e8a6d39fb169838732e04702b37b0338793bec61dfdb78d50f",
        "fleet": "773278043b776588d260dce3f6f64f341ba1e0d4571989a3db3358fb859a9660",
        "fault-fleet": "74e5498b6ef32714051b65b45aba94fb31bf00d22f1fe4f96cb636d5b8309490",
    }

    @staticmethod
    def _searches(engines, config):
        from repro.faults.plan import FaultPlan, RetryPolicy

        plan = FaultPlan.generate(
            2, 4.0, crash_rate_hz=1.0, mean_downtime_s=0.2,
            straggler_rate_hz=1.0, mean_straggler_s=0.3, straggler_slowdown=3.0,
            seed=11,
        )
        fleet = homogeneous_fleet(engines, config, 2)
        return {
            "server": CapacitySearch.for_server(
                engines, config, 0.1, LoadGenerator(seed=7), **SEARCH_KWARGS
            ),
            "fleet": CapacitySearch.for_fleet(
                fleet, "least-outstanding", 0.1, LoadGenerator(seed=7),
                **SEARCH_KWARGS,
            ),
            "fault-fleet": CapacitySearch.for_fleet(
                fleet, "failure-aware", 0.1, LoadGenerator(seed=7),
                fault_plan=plan, retry_policy=RetryPolicy(max_retries=2),
                **SEARCH_KWARGS,
            ),
        }

    def test_signature_digests_unchanged(self, engines, config):
        searches = self._searches(engines, config)
        assert "fault" in searches["fault-fleet"].signature()
        digests = {
            name: CapacityCache.digest(search.signature())
            for name, search in searches.items()
        }
        assert CAPACITY_SCHEMA_VERSION == 3
        assert digests == self.GOLDEN_DIGESTS


class TestSeededBalancerInstances:
    """A balancer instance's seed is state its name does not carry.

    On a multi-server fleet, seeded instances of one policy must neither
    share a warm-start entry nor be deduped onto each other in a batch:
    every seed's answer is its own solo cold run's.
    """

    SEEDS = (1, 2, 3, 4, 5)
    #: A tighter SLA and finer bisection than SEARCH_KWARGS, so that the
    #: seeds' capacities actually differ on this fleet.
    SLA_S = 0.05
    FIDELITY = dict(num_queries=400, iterations=4, max_queries=2000)

    @classmethod
    def _searches(cls, engines, config, balancer_cls):
        fleet = homogeneous_fleet(engines, config, 4)
        return [
            CapacitySearch.for_fleet(
                fleet, balancer_cls(seed=seed), cls.SLA_S, LoadGenerator(seed=7),
                **cls.FIDELITY,
            )
            for seed in cls.SEEDS
        ]

    @pytest.mark.parametrize("balancer_cls", [PowerOfTwoBalancer, RandomBalancer])
    def test_per_seed_results_equal_solo_cold_runs(
        self, engines, config, tmp_path, balancer_cls
    ):
        searches = self._searches(engines, config, balancer_cls)
        assert all(search.signature() is None for search in searches)
        solo = [search.run().max_qps for search in searches]
        assert len(set(solo)) > 1  # the seeds genuinely differ
        cache = CapacityCache(tmp_path)
        shared = [
            search.run(warm_start_cache=cache).max_qps
            for search in self._searches(engines, config, balancer_cls)
        ]
        batch = run_capacity_searches(
            self._searches(engines, config, balancer_cls), warm_start_cache=cache
        )
        assert shared == solo
        assert [result.max_qps for result in batch] == solo

    def test_single_server_instances_stay_cacheable(self, engines, config):
        fleet = homogeneous_fleet(engines, config, 1)
        signatures = [
            CapacitySearch.for_fleet(
                fleet, PowerOfTwoBalancer(seed=seed), 0.1, LoadGenerator(seed=7),
                **SEARCH_KWARGS,
            ).signature()
            for seed in self.SEEDS
        ]
        assert signatures[0] is not None
        assert all(signature == signatures[0] for signature in signatures)
