"""Completion-driven capacity search: decision identity, warm tiers, early exits.

Three layers of coverage:

* **Decision machine** (property-based): :class:`BisectionMachine` consumes
  exactly the rate/verdict sequence of the serial reference
  :func:`reference_bisect.bisect_max_qps` for every randomized
  capacity/bracket/iteration combination, and :func:`speculative_rates`
  always leads with the needed rate.
* **Completion-driven driver** (randomized, threaded): the real
  :func:`_drive_completion` loop fed by a fake pool whose futures resolve
  in random order from a background thread still reproduces the serial
  search's decisions, for any in-flight budget and number of concurrent
  searches.
* **Warm-start tiers, batch followers and early exits** (real
  simulators): the in-process memo replays without evaluations;
  single-server fleets share cache entries across balancing policies; a
  batch's duplicate searches replay their leader's answer; the
  certain-rejection exit is verdict-identical to the full run.
"""

import random
import threading

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
    _drive_completion,
    _SearchExecution,
    run_capacity_searches,
    speculative_rates,
)
from repro.runtime.pool import Future, WorkerPool
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

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.floats(min_value=1e-3, max_value=6000),
        upper=st.floats(min_value=1e-2, max_value=9000),
        iterations=st.integers(min_value=1, max_value=7),
        limit=st.integers(min_value=1, max_value=12),
    )
    def test_speculative_rates_lead_with_needed_rate(
        self, capacity, upper, iterations, limit
    ):
        machine = BisectionMachine(upper, iterations)
        while not machine.done:
            speculated = speculative_rates(machine, limit)
            assert speculated[0] == machine.next_rate()
            assert len(speculated) == len(set(speculated))  # deduplicated
            assert len(speculated) <= limit
            rate = machine.next_rate()
            machine.advance(FakeOutcome(rate, capacity).acceptable(1.0))
        assert speculative_rates(machine, limit) == []


class FakeCompletionPool:
    """Pool stub for the completion driver: futures resolve out of order.

    ``submit`` registers an unresolved future; a background thread resolves
    a *random* pending future every tick with the fake capacity verdict, so
    the driver sees arbitrary completion interleavings while the decisions
    must stay those of the serial search.
    """

    def __init__(self, capacity_by_context, seed):
        self._capacity_by_context = capacity_by_context
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._pending = []
        self._stop = False
        self._thread = threading.Thread(target=self._resolver, daemon=True)
        self._thread.start()

    def submit(self, fn, rate, context=None):
        future = Future(rate)
        with self._lock:
            self._pending.append((future, self._capacity_by_context[id(context)]))
        return future

    def _resolver(self):
        while not self._stop:
            with self._lock:
                if self._pending:
                    index = self._rng.randrange(len(self._pending))
                    future, capacity = self._pending.pop(index)
                    future._resolve(FakeOutcome(future.item, capacity))
                    continue
            threading.Event().wait(0.0005)

    def close(self):
        self._stop = True
        self._thread.join()


def build_fake_execution(upper, iterations, sla, capacity, pool_contexts):
    """A bare _SearchExecution around a machine (no cache, no real search)."""
    execution = _SearchExecution.__new__(_SearchExecution)
    execution.search = None
    execution.sla = sla
    execution.cache = None
    execution.signature = None
    execution.context = object()
    execution.machine = BisectionMachine(upper, iterations)
    execution.replay_rate = None
    execution.results = {}
    execution.pending = {}
    execution.evaluations = 0
    execution.cancelled = 0
    execution.result = None
    pool_contexts[id(execution.context)] = capacity
    return execution


class TestCompletionDriverRandomOrder:
    def test_driver_matches_serial_for_random_orders_and_budgets(self):
        rng = random.Random(20260730)
        for trial in range(30):
            num_searches = rng.randint(1, 4)
            budget = rng.randint(2, 6)
            scenarios = [
                (
                    rng.uniform(1e-3, 6000),  # capacity
                    rng.uniform(1e-2, 9000),  # upper
                    rng.randint(1, 7),  # iterations
                )
                for _ in range(num_searches)
            ]
            contexts = {}
            executions = [
                build_fake_execution(upper, iterations, 1.0, capacity, contexts)
                for capacity, upper, iterations in scenarios
            ]
            pool = FakeCompletionPool(contexts, seed=trial)
            try:
                _drive_completion(executions, pool, budget)
            finally:
                pool.close()
            for execution, (capacity, upper, iterations) in zip(
                executions, scenarios
            ):
                serial = bisect_max_qps(
                    lambda rate: FakeOutcome(rate, capacity), upper, 1.0, iterations
                )
                assert execution.result is not None
                assert execution.result.max_qps == serial.max_qps, (
                    trial,
                    capacity,
                    upper,
                    iterations,
                )
                # Speculation may evaluate extra rates, never fewer than the
                # serial decision path consumed.
                assert execution.evaluations >= serial.evaluations


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
        self, engines, config
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
        execution = _SearchExecution(search, None)
        rate = 2000.0
        execution.machine.phase = "unbracketed"
        execution.machine.upper = rate
        execution.results[rate] = CertainRejection(
            sla_latency_s=0.1, measured_queries=10, over_sla_queries=10
        )
        execution.absorb()
        assert execution.result is not None
        assert execution.result.max_qps == rate
        assert not isinstance(execution.result.result, CertainRejection)
        assert execution.result.result.p95_latency_s > 0.0


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

