"""Tests for deterministic fault injection (repro.faults + cluster loop).

The resilience contract under test:

* **Result neutrality** — a simulator built without a plan, with ``None``,
  or with an empty :class:`FaultPlan` produces bit-identical results, and
  carries no :class:`FaultStats` at all.
* **Determinism** — generated plans are pure functions of their seed, and
  a faulted replay of a fixed plan is bit-identical run to run.
* **Semantics** — crashes lose in-flight work and blackhole naive
  dispatches; retries and hedges recover queries within their budget;
  stragglers slow completions without losing them; the failure-aware
  balancer routes around the health view.
* **Honest accounting** — a query lost to faults counts against the SLA
  acceptance (``meets_sla``), so blackholing can never *raise* measured
  capacity.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.execution.engine import build_engine_pair
from repro.faults import (
    CrashWindow,
    FaultPlan,
    FaultStats,
    NodeFaultSchedule,
    RetryPolicy,
    StragglerEpisode,
)
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacitySearch
from repro.serving.cluster import (
    ClusterSimulationResult,
    ClusterSimulator,
    homogeneous_fleet,
)
from repro.serving.simulator import ServingConfig

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def servers():
    engines = build_engine_pair("dlrm-rmc1", "skylake", None)
    config = ServingConfig(batch_size=256, num_cores=8)
    return homogeneous_fleet(engines, config, 3)


@pytest.fixture(scope="module")
def queries():
    return LoadGenerator(seed=11).with_rate(3000.0).generate(3000)


def storm() -> FaultPlan:
    """Node 0 down early, node 2 down late, node 1 straggling in between."""
    return FaultPlan(
        nodes={
            0: NodeFaultSchedule(crashes=(CrashWindow(0.1, 0.45),)),
            1: NodeFaultSchedule(
                stragglers=(StragglerEpisode(0.3, 0.7, slowdown=4.0),)
            ),
            2: NodeFaultSchedule(crashes=(CrashWindow(0.6, 0.85),)),
        }
    )


class TestPlanDataModel:
    def test_generate_is_a_pure_function_of_the_seed(self):
        kwargs = dict(
            crash_rate_hz=0.4,
            mean_downtime_s=0.5,
            straggler_rate_hz=0.2,
            mean_straggler_s=0.5,
        )
        assert FaultPlan.generate(3, 20.0, seed=7, **kwargs) == FaultPlan.generate(
            3, 20.0, seed=7, **kwargs
        )
        assert FaultPlan.generate(3, 20.0, seed=7, **kwargs) != FaultPlan.generate(
            3, 20.0, seed=8, **kwargs
        )

    def test_round_trip_through_dict(self):
        plan = storm()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_zero_rate_generates_the_empty_plan(self):
        assert FaultPlan.generate(3, 20.0, seed=7).is_empty()

    def test_events_are_time_sorted_with_recoveries_before_crashes(self):
        plan = FaultPlan(
            nodes={
                0: NodeFaultSchedule(crashes=(CrashWindow(0.0, 1.0),)),
                1: NodeFaultSchedule(crashes=(CrashWindow(1.0, 2.0),)),
            }
        )
        kinds = [(event.time_s, event.kind) for event in plan.events(2)]
        assert kinds == [
            (0.0, "crash"),
            (1.0, "recover"),
            (1.0, "crash"),
            (2.0, "recover"),
        ]

    def test_events_ignore_nodes_beyond_the_fleet(self):
        plan = FaultPlan(
            nodes={5: NodeFaultSchedule(crashes=(CrashWindow(0.0, 1.0),))}
        )
        assert plan.events(3) == []

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError, match="end after it starts"):
            CrashWindow(1.0, 1.0)
        with pytest.raises(ValueError, match="slowdown"):
            StragglerEpisode(0.0, 1.0, slowdown=0.5)
        with pytest.raises(ValueError, match="overlap"):
            NodeFaultSchedule(
                crashes=(CrashWindow(0.0, 1.0), CrashWindow(0.5, 2.0))
            )

    def test_retry_policy_validation_and_round_trip(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        policy = RetryPolicy(max_retries=2, hedge=True, detect_delay_s=0.01)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


class TestResultNeutrality:
    def test_zero_plan_runs_are_bit_identical(self, servers, queries):
        plain = ClusterSimulator(servers, "least-outstanding").run(queries)
        with_none = ClusterSimulator(
            servers, "least-outstanding", fault_plan=None
        ).run(queries)
        with_empty = ClusterSimulator(
            servers,
            "least-outstanding",
            fault_plan=FaultPlan(),
            retry_policy=RetryPolicy(max_retries=2, hedge=True),
        ).run(queries)
        assert plain.latencies_s == with_none.latencies_s
        assert plain.latencies_s == with_empty.latencies_s
        assert plain == with_empty
        assert with_empty.fault_stats is None
        assert with_empty.failed_queries == 0

    def test_plan_that_never_fires_is_result_neutral(self, servers, queries):
        # The only crash opens after the last arrival, once the run has
        # drained: the fault source is in the loop but nothing ever fires.
        horizon = queries[-1].arrival_time
        plan = FaultPlan(
            nodes={
                0: NodeFaultSchedule(
                    crashes=(CrashWindow(horizon + 1.0, horizon + 2.0),)
                )
            }
        )
        plain = ClusterSimulator(servers, "least-outstanding").run(queries)
        hooked = ClusterSimulator(
            servers,
            "least-outstanding",
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
        ).run(queries)
        assert hooked.latencies_s == plain.latencies_s
        assert hooked.p50_latency_s == plain.p50_latency_s
        assert hooked.p95_latency_s == plain.p95_latency_s
        assert hooked.p99_latency_s == plain.p99_latency_s
        assert hooked.mean_latency_s == plain.mean_latency_s
        assert hooked.per_server == plain.per_server
        assert hooked.fault_stats == FaultStats()

    def test_faulted_replays_are_deterministic(self, servers, queries):
        runs = [
            ClusterSimulator(
                servers,
                "failure-aware",
                fault_plan=storm(),
                retry_policy=RetryPolicy(max_retries=2, hedge=True),
            ).run(queries)
            for _ in range(2)
        ]
        assert runs[0].latencies_s == runs[1].latencies_s
        assert runs[0].fault_stats == runs[1].fault_stats


class TestFaultSemantics:
    def test_naive_balancing_blackholes_into_crashed_nodes(self, servers, queries):
        result = ClusterSimulator(
            servers, "least-outstanding", fault_plan=storm()
        ).run(queries)
        stats = result.fault_stats
        assert stats.crashes == 2
        assert stats.recoveries == 2
        # In-flight work died with the node, and the crashed node's empty
        # queue kept attracting new dispatches that were lost too.
        assert stats.crash_killed_in_flight > 0
        assert stats.blackholed_dispatches > 0
        assert result.failed_queries > 0
        assert stats.retries == 0

    def test_retry_budget_recovers_queries(self, servers, queries):
        naive = ClusterSimulator(
            servers, "least-outstanding", fault_plan=storm()
        ).run(queries)
        retried = ClusterSimulator(
            servers,
            "least-outstanding",
            fault_plan=storm(),
            retry_policy=RetryPolicy(max_retries=3),
        ).run(queries)
        assert retried.fault_stats.retries > 0
        assert retried.failed_queries < naive.failed_queries
        # Every measured (post-warmup) query either completed or failed.
        warmup = int(len(queries) * servers[0].config.warmup_fraction)
        assert (
            len(retried.latencies_s) + retried.failed_queries
            == len(queries) - warmup
        )

    def test_hedged_retries_dispatch_duplicates(self, servers, queries):
        hedged = ClusterSimulator(
            servers,
            "failure-aware",
            fault_plan=storm(),
            retry_policy=RetryPolicy(max_retries=2, hedge=True),
        ).run(queries)
        assert hedged.fault_stats.hedged_dispatches > 0
        assert hedged.failed_queries == 0

    def test_stragglers_slow_completions_without_losing_them(
        self, servers, queries
    ):
        slow_only = FaultPlan(
            nodes={
                1: NodeFaultSchedule(
                    stragglers=(StragglerEpisode(0.1, 0.9, slowdown=6.0),)
                )
            }
        )
        healthy = ClusterSimulator(servers, "least-outstanding").run(queries)
        straggling = ClusterSimulator(
            servers, "least-outstanding", fault_plan=slow_only
        ).run(queries)
        assert straggling.failed_queries == 0
        assert len(straggling.latencies_s) == len(healthy.latencies_s)
        assert straggling.p95_latency_s > healthy.p95_latency_s

    def test_failure_aware_beats_naive_under_the_same_storm(
        self, servers, queries
    ):
        naive = ClusterSimulator(
            servers, "least-outstanding", fault_plan=storm()
        ).run(queries)
        aware = ClusterSimulator(
            servers,
            "failure-aware",
            fault_plan=storm(),
            retry_policy=RetryPolicy(max_retries=2, hedge=True),
        ).run(queries)
        assert aware.failed_queries < naive.failed_queries
        assert aware.failed_queries == 0


def make_result(p95_latency_s, latencies_s, failed):
    stats = FaultStats(failed_queries=failed) if failed else None
    return ClusterSimulationResult(
        policy="least-outstanding",
        num_servers=1,
        num_queries=len(latencies_s) + failed,
        measured_queries=len(latencies_s),
        duration_s=1.0,
        p50_latency_s=p95_latency_s,
        p95_latency_s=p95_latency_s,
        p99_latency_s=p95_latency_s,
        mean_latency_s=p95_latency_s,
        achieved_qps=1.0,
        offered_qps=1.0,
        fleet_cpu_utilization=0.5,
        per_server=[],
        latencies_s=list(latencies_s),
        fault_stats=stats,
    )


class TestFaultAwareSLAAcceptance:
    """Failed queries are SLA misses: blackholing cannot flatter capacity."""

    def test_failures_count_against_the_sla(self):
        # 90 fast completions + 10 failures: >5% of the offered population
        # missed the SLA even though the completions' p95 looks perfect.
        result = make_result(0.01, [0.01] * 90, failed=10)
        assert not result.meets_sla(0.1)

    def test_rare_failures_within_the_5_percent_budget_pass(self):
        result = make_result(0.01, [0.01] * 99, failed=1)
        assert result.meets_sla(0.1)

    def test_zero_failures_take_the_inherited_check(self):
        assert make_result(0.01, [0.01] * 100, failed=0).meets_sla(0.1)
        assert not make_result(0.2, [0.2] * 100, failed=0).meets_sla(0.1)

    def test_faulted_capacity_never_exceeds_healthy_capacity(self, servers):
        generator = LoadGenerator(seed=11)
        fidelity = dict(num_queries=400, iterations=3, max_queries=1200)
        healthy = CapacitySearch.for_fleet(
            servers, "least-outstanding", 0.1, generator, **fidelity,
        ).run()
        # A storm covering most of the search workload's span: without the
        # failure-aware acceptance the blackholed queries would *raise* the
        # accepted rate (they never post a latency).
        faulted = CapacitySearch.for_fleet(
            servers,
            "least-outstanding",
            0.1,
            generator,
            fault_plan=FaultPlan(
                nodes={
                    0: NodeFaultSchedule(crashes=(CrashWindow(0.01, 1.0),))
                }
            ),
            **fidelity,
        ).run()
        assert faulted.max_qps < healthy.max_qps


class TestDegradedFleetExperiment:
    def run_small(self):
        from repro.experiments import run_experiment

        return run_experiment(
            "degraded-fleet",
            num_servers=3,
            crash_rates_hz=(0.0, 0.5),
            duration_s=1.5,
            capacity_num_queries=800,
            capacity_iterations=3,
            capacity_max_queries=2400,
        )

    def test_failure_aware_never_loses_on_violations(self):
        result = self.run_small()
        by_rate = result.metadata["by_rate"]
        for rate, cells in by_rate.items():
            assert (
                cells["failure-aware"]["violations"]
                <= cells["naive"]["violations"]
            ), rate
        worst = by_rate["0.5"]
        assert worst["naive"]["failed_queries"] > 0
        assert (
            worst["failure-aware"]["violations"] < worst["naive"]["violations"]
        )

    def test_experiment_is_deterministic(self):
        first = self.run_small()
        second = self.run_small()
        assert first.rows == second.rows

    def test_zero_rate_arms_agree_with_each_other(self):
        result = self.run_small()
        healthy = result.metadata["by_rate"]["0"]
        assert healthy["naive"]["violations"] == 0
        assert (
            healthy["naive"]["p95_latency_s"]
            == healthy["failure-aware"]["p95_latency_s"]
        )


class TestFaultPlanHash:
    """``FaultPlan.__hash__`` must be stable across interpreter processes.

    The plan's hash feeds set/dict placement wherever plans are deduped; a
    PYTHONHASHSEED-dependent hash would make that placement differ between
    runs.  It is process-stable only because the hashed tuple bottoms out in
    ints and floats (never str/bytes, the only salted types) — the invariant
    the inline RL001 suppression in ``plan.py`` relies on.
    """

    def test_schedule_fields_contain_no_strings(self):
        plan = storm()
        def flatten(value):
            if isinstance(value, (CrashWindow, StragglerEpisode)):
                return [
                    inner
                    for name in value.__dataclass_fields__
                    for inner in flatten(getattr(value, name))
                ]
            if isinstance(value, (tuple, list)):
                return [inner for item in value for inner in flatten(item)]
            return [value]

        leaves = [
            leaf
            for node, schedule in plan.nodes.items()
            for leaf in [node] + flatten(schedule.crashes) + flatten(schedule.stragglers)
        ]
        assert leaves and all(isinstance(leaf, (int, float)) for leaf in leaves)

    def test_hash_identical_across_hash_seeds(self):
        plan = storm()
        script = (
            "from repro.faults import ("
            "CrashWindow, FaultPlan, NodeFaultSchedule, StragglerEpisode);"
            "plan = FaultPlan(nodes={"
            "0: NodeFaultSchedule(crashes=(CrashWindow(0.1, 0.45),)),"
            "1: NodeFaultSchedule(stragglers=(StragglerEpisode(0.3, 0.7, slowdown=4.0),)),"
            "2: NodeFaultSchedule(crashes=(CrashWindow(0.6, 0.85),))});"
            "print(hash(plan))"
        )
        hashes = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC_DIR), env.get("PYTHONPATH", "")])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            hashes.add(int(result.stdout.strip()))
        assert len(hashes) == 1, f"hash varies with PYTHONHASHSEED: {hashes}"
        assert hash(plan) in hashes  # reprolint: disable=RL001 -- the salted-hash behaviour is exactly what this test verifies
