"""Tests for the ablation experiment drivers (reduced fidelity)."""

import pytest

import repro.experiments.ablations as ablations
import repro.runtime.capacity as runtime_capacity
from repro.experiments import available_experiments, run_experiment
from repro.runtime.pool import shared_pool
from repro.serving.sla import SLATier

FAST = dict(num_queries=150, capacity_iterations=3)


class TestAblationRegistry:
    def test_ablations_registered(self):
        registered = set(available_experiments())
        assert {"ablation-arrival", "ablation-size-dist", "ablation-cache-contention"} <= registered


class TestArrivalAblation:
    def test_rows_and_capacities(self):
        result = run_experiment(
            "ablation-arrival",
            arrival_processes=("poisson", "fixed"),
            **FAST,
        )
        assert len(result.rows) == 2
        capacities = result.metadata["capacity_by_arrival"]
        assert all(qps > 0 for qps in capacities.values())

    def test_poisson_is_most_conservative(self):
        result = run_experiment(
            "ablation-arrival",
            arrival_processes=("poisson", "fixed"),
            num_queries=250,
            capacity_iterations=3,
        )
        capacities = result.metadata["capacity_by_arrival"]
        # Smoother arrivals sustain at least as much load as bursty Poisson.
        assert capacities["fixed"] >= 0.9 * capacities["poisson"]


class TestSizeDistributionAblation:
    def test_mismatch_penalty_at_least_one(self):
        result = run_experiment(
            "ablation-size-dist",
            batch_sizes=(128, 256, 512, 1024),
            **FAST,
        )
        assert result.metadata["mismatch_penalty"] >= 0.95
        optima = result.metadata["optimal_batch"]
        # The flat-optimum jitter is bounded: both tuned batches are large,
        # and the lognormal one is within a power-of-two step of production's.
        assert optima["production"] >= 128
        assert optima["lognormal"] <= 2 * optima["production"]

    def test_rows_cover_both_distributions(self):
        result = run_experiment(
            "ablation-size-dist", batch_sizes=(256, 512), **FAST
        )
        assert sorted(result.column("tuned-on")) == ["lognormal", "production"]


class TestCacheContentionAblation:
    def test_removing_contention_never_hurts(self):
        result = run_experiment(
            "ablation-cache-contention",
            batch_sizes=(64, 512),
            **FAST,
        )
        ratios = result.metadata["uplift_without_contention"]
        assert all(ratio >= 0.9 for ratio in ratios.values())

    def test_small_batches_gain_at_least_as_much(self):
        result = run_experiment(
            "ablation-cache-contention",
            batch_sizes=(32, 1024),
            num_queries=250,
            capacity_iterations=3,
        )
        ratios = result.metadata["uplift_without_contention"]
        assert ratios[32] >= ratios[1024] - 0.1

    def test_tier_parameter_accepted(self):
        result = run_experiment(
            "ablation-cache-contention",
            batch_sizes=(256,),
            tier=SLATier.HIGH,
            **FAST,
        )
        assert len(result.rows) == 1


class TestAblationBatches:
    @pytest.mark.parametrize(
        "experiment_id, params, batches",
        [
            ("ablation-arrival", dict(arrival_processes=("poisson", "fixed")), 1),
            # The tuning grid, then the cross-evaluations.
            ("ablation-size-dist", dict(batch_sizes=(256, 512)), 2),
            ("ablation-cache-contention", dict(batch_sizes=(64, 512)), 1),
        ],
    )
    def test_searches_batched_and_rows_identical_across_jobs(
        self, experiment_id, params, batches, monkeypatch
    ):
        # Each ablation submits its independent searches as whole batches,
        # so jobs > 1 runs them concurrently; the rows do not change.
        monkeypatch.setattr(runtime_capacity, "_host_cores", lambda: 2)
        batch_calls = []
        run_batch = ablations.run_capacity_searches

        def counting(searches, **kwargs):
            batch_calls.append(len(searches))
            return run_batch(searches, **kwargs)

        monkeypatch.setattr(ablations, "run_capacity_searches", counting)
        serial = run_experiment(experiment_id, jobs=1, **params, **FAST)
        assert len(batch_calls) == batches
        with shared_pool(2):
            pooled = run_experiment(experiment_id, jobs=2, **params, **FAST)
        assert batch_calls[batches:] == batch_calls[:batches]
        assert pooled.rows == serial.rows
        assert pooled.metadata == serial.metadata
