"""Capacity search execution: decision identity, warm tiers, early exits.

Three layers of coverage:

* **Decision machine** (property-based): :class:`BisectionMachine` consumes
  exactly the rate/verdict sequence of the serial reference
  :func:`reference_bisect.bisect_max_qps` for every randomized
  capacity/bracket/iteration combination.
* **One pool task per search** (real pool): a batch run at ``jobs > 1``
  submits exactly one task per unfinished search, and its results,
  evaluation counts and cache statistics are those of ``jobs=1`` — cold,
  warm from disk and from the memo.
* **Warm-start tiers, batch followers and early exits** (real
  simulators): the in-process memo replays without evaluations;
  single-server fleets share cache entries across balancing policies; a
  batch's duplicate searches replay their leader's answer; the
  certain-rejection exit is verdict-identical to the full run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.capacity as runtime_capacity
from reference_bisect import bisect_max_qps
from repro.execution.engine import build_engine_pair
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import (
    BisectionMachine,
    CapacityCache,
    CapacitySearch,
    run_capacity_searches,
)
from repro.runtime.pool import WorkerPool
from repro.serving.cluster import ClusterSimulator, homogeneous_fleet
from repro.serving.simulator import (
    CertainRejection,
    ServingConfig,
    certain_rejection_threshold,
)

SEARCH_KWARGS = dict(num_queries=100, iterations=3, max_queries=1000)


class FakeOutcome:
    """Deterministic stand-in for a simulation result: acceptable iff the
    offered rate is at or under the scenario's capacity."""

    __slots__ = ("rate", "capacity")

    def __init__(self, rate, capacity):
        self.rate = rate
        self.capacity = capacity

    def acceptable(self, sla_latency_s):
        return self.rate <= self.capacity


def drive_machine_serially(machine, capacity):
    """Run a machine to completion; returns (max_qps, result_rate, rates)."""
    rates = []
    while not machine.done:
        rate = machine.next_rate()
        rates.append(rate)
        machine.advance(FakeOutcome(rate, capacity).acceptable(1.0))
    return machine.max_qps, machine.result_rate, rates


class TestBisectionMachineProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.floats(min_value=1e-3, max_value=6000),
        upper=st.floats(min_value=1e-2, max_value=9000),
        iterations=st.integers(min_value=1, max_value=9),
    )
    def test_machine_decision_identical_to_serial_bisection(
        self, capacity, upper, iterations
    ):
        serial_rates = []

        def evaluate(rate):
            serial_rates.append(rate)
            return FakeOutcome(rate, capacity)

        serial = bisect_max_qps(evaluate, upper, 1.0, iterations)
        machine = BisectionMachine(upper, iterations)
        max_qps, result_rate, rates = drive_machine_serially(machine, capacity)
        assert (max_qps or 0.0) == serial.max_qps
        assert rates == serial_rates
        assert len(rates) == serial.evaluations
        if serial.result is None:
            assert result_rate is None
        else:
            assert result_rate == serial.max_qps or result_rate == rates[-1]


@pytest.fixture(scope="module")
def engines():
    return build_engine_pair("dlrm-rmc1", "skylake", None)


@pytest.fixture(scope="module")
def config():
    return ServingConfig(batch_size=256, num_cores=8)


class TestRealPoolCrossSearch:
    def test_concurrent_searches_bit_identical_to_serial(
        self, engines, config, monkeypatch
    ):
        import repro.runtime.capacity as runtime_capacity

        monkeypatch.setattr(runtime_capacity, "_host_cores", lambda: 3)
        generator = LoadGenerator(seed=7)
        searches = [
            CapacitySearch.for_fleet(
                homogeneous_fleet(engines, config, size), policy, 0.1, generator,
                **SEARCH_KWARGS,
            )
            for size in (1, 2)
            for policy in ("least-outstanding", "power-of-two")
        ]
        serial = [search.run() for search in searches]
        with WorkerPool(3) as pool:
            concurrent = run_capacity_searches(searches, jobs=3, pool=pool)
        for one, many in zip(serial, concurrent):
            assert many.max_qps == one.max_qps
            assert many.result.p95_latency_s == one.result.p95_latency_s
            assert many.result.latencies_s == one.result.latencies_s


class CountingPool(WorkerPool):
    """A real worker pool that counts the tasks submitted to it."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.submits = 0

    def submit(self, fn, item, context=None):
        self.submits += 1
        return super().submit(fn, item, context=context)


class TestOneTaskPerSearch:
    def test_pooled_batch_matches_serial_cold_warm_and_memo(
        self, engines, config, tmp_path, monkeypatch
    ):
        # A cold leader, its single-server duplicate under another policy (a
        # batch follower) and a search no rate satisfies, run cold, then
        # warm from disk (a new cache instance), then again on that instance
        # (memo) — at jobs=1 and at jobs=2, each against its own directory.
        monkeypatch.setattr(runtime_capacity, "_host_cores", lambda: 2)
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 1)
        searches = [
            CapacitySearch.for_fleet(
                fleet, "least-outstanding", 0.1, generator, **SEARCH_KWARGS
            ),
            CapacitySearch.for_fleet(fleet, "power-of-two", 0.1, generator, **SEARCH_KWARGS),
            CapacitySearch.for_server(engines, config, 1e-6, generator, **SEARCH_KWARGS),
        ]

        def three_passes(jobs, cache_dir, pool):
            warm_cache = CapacityCache(cache_dir)
            outcomes, stats, submits = [], [], []
            for cache in (CapacityCache(cache_dir), warm_cache, warm_cache):
                before = getattr(pool, "submits", 0)
                outcomes.append(
                    run_capacity_searches(searches, jobs=jobs, warm_start_cache=cache, pool=pool)
                )
                stats.append(dict(cache.stats))
                submits.append(getattr(pool, "submits", 0) - before)
            return outcomes, stats, submits

        serial, serial_stats, _ = three_passes(1, tmp_path / "serial", None)
        with CountingPool(2) as pool:
            pooled, pooled_stats, submits = three_passes(2, tmp_path / "pooled", pool)

        cold = serial[0]
        assert cold[0].evaluations > 1 and cold[1].evaluations == 1
        assert cold[2].max_qps == 0.0
        assert pooled_stats == serial_stats
        # One task per unfinished search.  Cold: the leader, the infeasible
        # search and the follower's replay.  Warm: the leader's verification,
        # the infeasible search again (a zero capacity is never stored) and
        # the follower's replay.  Memo: the follower's replay only.
        assert submits == [3, 3, 1]
        for serial_pass, pooled_pass in zip(serial, pooled):
            for one, many in zip(serial_pass, pooled_pass):
                assert many.max_qps == one.max_qps
                assert many.evaluations == one.evaluations
                if one.result is None:
                    assert many.result is None
                else:
                    assert many.result.latencies_s == one.result.latencies_s


class TestWarmTiers:
    def test_memo_replays_without_evaluations(self, engines, config, tmp_path):
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 2)
        cache = CapacityCache(tmp_path)
        search = CapacitySearch.for_fleet(
            fleet, "least-outstanding", 0.1, generator, **SEARCH_KWARGS
        )
        first = search.run(warm_start_cache=cache)
        again = search.run(warm_start_cache=cache)
        assert cache.stats["memo_hits"] == 1
        assert again.evaluations == 0
        assert again.max_qps == first.max_qps
        assert again.result.latencies_s == first.result.latencies_s

    def test_single_server_fleet_shares_entries_across_policies(
        self, engines, config, tmp_path
    ):
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 1)
        cache = CapacityCache(tmp_path)
        first = CapacitySearch.for_fleet(
            fleet, "least-outstanding", 0.1, generator, **SEARCH_KWARGS
        ).run(warm_start_cache=cache)
        other_policy = CapacitySearch.for_fleet(
            fleet, "power-of-two", 0.1, generator, **SEARCH_KWARGS
        ).run(warm_start_cache=cache)
        # The second policy replays the shared entry (one verifying
        # evaluation) and still reports its own policy label.
        assert cache.stats["exact_hits"] == 1
        assert other_policy.evaluations == 1
        assert other_policy.max_qps == first.max_qps
        assert other_policy.result.policy == "power-of-two"
        assert other_policy.result.latencies_s == first.result.latencies_s

    def test_multi_server_fleets_do_not_share_across_policies(
        self, engines, config
    ):
        generator = LoadGenerator(seed=7)

        def signature(size, policy):
            return CapacitySearch.for_fleet(
                homogeneous_fleet(engines, config, size), policy, 0.1, generator,
                **SEARCH_KWARGS,
            ).signature()

        assert signature(1, "least-outstanding") == signature(1, "power-of-two")
        assert signature(2, "least-outstanding") != signature(2, "power-of-two")


class TestBatchDedupe:
    def test_identical_single_server_searches_share_one_bisection(
        self, engines, config
    ):
        # Schema v3 normalises the policy out of single-server signatures;
        # a batch submitting the same fleet-of-one under several policies
        # runs the bisection once and replays followers with one verifying
        # evaluation each — correctly relabelled, identical numbers.
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 1)
        searches = [
            CapacitySearch.for_fleet(fleet, policy, 0.1, generator, **SEARCH_KWARGS)
            for policy in ("least-outstanding", "power-of-two", "round-robin")
        ]
        leader, first_follower, second_follower = run_capacity_searches(searches)
        assert first_follower.max_qps == leader.max_qps
        assert second_follower.max_qps == leader.max_qps
        assert first_follower.evaluations == 1
        assert second_follower.evaluations == 1
        assert first_follower.result.policy == "power-of-two"
        assert second_follower.result.policy == "round-robin"
        assert first_follower.result.latencies_s == leader.result.latencies_s

    def test_infeasible_leader_gives_infeasible_followers_unevaluated(
        self, engines, config
    ):
        # A microsecond p95 target no rate can meet: the leader's search
        # ends infeasible, and its followers inherit that verdict without
        # a single evaluation of their own.
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 1)
        searches = [
            CapacitySearch.for_fleet(fleet, policy, 1e-6, generator, **SEARCH_KWARGS)
            for policy in ("least-outstanding", "power-of-two", "round-robin")
        ]
        leader, *followers = run_capacity_searches(searches)
        assert leader.max_qps == 0.0 and leader.result is None
        for follower in followers:
            assert follower.max_qps == 0.0
            assert follower.result is None
            assert follower.evaluations == 0

    def test_rejected_verification_falls_back_to_cold_search(
        self, engines, config, monkeypatch
    ):
        # A follower whose verifying evaluation at the leader's rate is
        # rejected (possible only if the two searches were not actually
        # identical) searches cold, from nothing: its answer is a solo cold
        # run's, plus the one rejected verification in its count.
        generator = LoadGenerator(seed=7)
        fleet = homogeneous_fleet(engines, config, 1)

        def search(policy):
            return CapacitySearch.for_fleet(fleet, policy, 0.1, generator, **SEARCH_KWARGS)

        solo = search("power-of-two").run()
        leader_search, follower_search = search("least-outstanding"), search("power-of-two")
        evaluate = runtime_capacity._evaluate_rate
        forced = []

        def reject_verification(target, rate, reject=True):
            if target is follower_search and not forced:
                forced.append(rate)
                return CertainRejection(
                    sla_latency_s=0.1, measured_queries=10, over_sla_queries=10
                )
            return evaluate(target, rate, reject)

        monkeypatch.setattr(runtime_capacity, "_evaluate_rate", reject_verification)
        leader, follower = run_capacity_searches([leader_search, follower_search])
        assert forced == [leader.max_qps]
        assert follower.max_qps == solo.max_qps
        assert follower.result.latencies_s == solo.result.latencies_s
        assert follower.result.policy == "power-of-two"
        assert follower.evaluations == solo.evaluations + 1


class TestUnbracketedExitResult:
    def test_rejected_unbracketed_measurement_reports_full_result(
        self, engines, config, monkeypatch
    ):
        # The unbracketed exit reports the final raised rate even when its
        # measurement is rejected; with the early-rejection exit armed that
        # measurement lands as a CertainRejection stub, and the search must
        # re-measure it fully so CapacityResult.result keeps the complete
        # statistics the serial contract promises (regression: ablation
        # drivers read result.p95_latency_s).
        search = CapacitySearch.for_server(
            engines, config, 0.1, LoadGenerator(seed=7), **SEARCH_KWARGS
        )
        evaluate = runtime_capacity._evaluate_rate
        calls = []

        def accept_below_2000(target, rate, reject=True):
            # Bracket raises 500 -> 800 -> 1280 are accepted; the unbracketed
            # measurement at 2048 exits early as a rejection stub.
            calls.append((rate, reject))
            if not reject:
                return evaluate(target, rate, reject)
            if rate < 2000.0:
                return FakeOutcome(rate, capacity=2000.0)
            return CertainRejection(
                sla_latency_s=0.1, measured_queries=10, over_sla_queries=10
            )

        monkeypatch.setattr(runtime_capacity, "_evaluate_rate", accept_below_2000)
        monkeypatch.setattr(search, "default_upper_qps", lambda: 500.0)
        outcome = search.run()
        rate = 500.0 * 1.6 * 1.6 * 1.6  # the machine's ×1.6 raises, in order
        assert calls[-2:] == [(rate, True), (rate, False)]
        assert outcome.max_qps == rate
        assert outcome.evaluations == 5
        assert not isinstance(outcome.result, CertainRejection)
        assert outcome.result.p95_latency_s > 0.0
        assert outcome.result.latencies_s == evaluate(search, rate, False).latencies_s


class TestCertainRejection:
    def test_threshold_is_sound(self):
        # With K = certain_rejection_threshold(n) over-SLA samples among n,
        # the p95 exceeds the SLA for every arrangement of the rest.
        import numpy as np

        rng = random.Random(5)
        for n in (1, 2, 3, 19, 20, 21, 40, 137):
            threshold = certain_rejection_threshold(n)
            for _ in range(20):
                under = [rng.uniform(0.0, 1.0) for _ in range(n - threshold)]
                over = [1.0 + rng.uniform(1e-6, 5.0) for _ in range(threshold)]
                samples = under + over
                rng.shuffle(samples)
                assert float(np.percentile(samples, 95)) > 1.0, (n, threshold)

    def test_verdicts_identical_to_full_run(self, engines, config):
        sla = 0.1
        fleet = homogeneous_fleet(engines, config, 1)
        generator = LoadGenerator(seed=5)
        for rate in (1500.0, 2400.0, 2500.0, 3000.0, 6000.0):
            queries = generator.with_rate(rate).generate(600)
            simulator = ClusterSimulator(fleet, balancer="least-outstanding")
            full = simulator.run(queries)
            fast = simulator.run(queries, reject_above_sla_s=sla)
            assert fast.acceptable(sla) == full.acceptable(sla)
            if isinstance(fast, CertainRejection):
                assert not full.meets_sla(sla)
                assert fast.over_sla_queries >= certain_rejection_threshold(
                    len(queries) - int(len(queries) * 0.1)
                )
            else:
                assert fast.p95_latency_s == full.p95_latency_s
                assert fast.latencies_s == full.latencies_s

