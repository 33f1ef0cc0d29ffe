"""Tests for the experiment framework and the lightweight drivers.

The heavyweight drivers (Fig. 9-14) are exercised at strongly reduced
fidelity here; the benchmark suite runs them at their full defaults.
"""

import pytest

from repro.experiments import (
    ExperimentResult,
    available_experiments,
    get_experiment,
    run_experiment,
    run_experiments,
)
from repro.experiments.registry import register_experiment
from repro.serving.sla import SLATier


class TestExperimentResult:
    def test_add_row_and_column(self):
        result = ExperimentResult("x", "t", headers=["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]

    def test_row_length_mismatch(self):
        result = ExperimentResult("x", "t", headers=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_unknown_column(self):
        result = ExperimentResult("x", "t", headers=["a"])
        with pytest.raises(KeyError):
            result.column("z")

    def test_to_table_and_dict(self):
        result = ExperimentResult("fig-x", "demo", headers=["a"], notes="note")
        result.add_row(1.2345)
        text = result.to_table()
        assert "[fig-x] demo" in text
        assert "note" in text
        payload = result.to_dict()
        assert payload["experiment_id"] == "fig-x"
        assert payload["rows"] == [[1.2345]]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table-1", "table-2", "figure-1", "figure-3", "figure-4", "figure-5",
            "figure-6", "figure-7", "figure-9", "figure-10", "figure-11",
            "figure-12", "figure-13", "figure-14",
        }
        assert expected <= set(available_experiments())

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("figure-99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_experiment("table-1")(lambda: None)

    def test_run_experiments_with_overrides(self):
        results = run_experiments(
            ["table-1", "figure-5"], overrides={"figure-5": {"num_samples": 2000}}
        )
        assert [r.experiment_id for r in results] == ["table-1", "figure-5"]


class TestLightweightDrivers:
    def test_table1_has_all_models(self):
        result = run_experiment("table-1")
        assert len(result.rows) == 8
        assert "dlrm-rmc1" in result.column("model")

    def test_table2_bottlenecks_agree_with_configs(self):
        result = run_experiment("table-2")
        assert result.metadata["bottleneck_agreement"] >= 0.75

    def test_fig1_recommendation_models_memory_bound(self):
        result = run_experiment("figure-1")
        assert result.metadata["max_rec_intensity"] < result.metadata["ridge_point"]
        rows = {row[0]: row for row in result.rows}
        assert rows["dlrm-rmc1"][-1] is True  # memory-bound column
        # The CNN reference sits at far higher operational intensity than any
        # recommendation model.
        resnet_intensity = rows["resnet50"][1]
        assert resnet_intensity > result.metadata["max_rec_intensity"]

    def test_fig3_dominant_categories(self):
        result = run_experiment("figure-3")
        dominant = result.metadata["dominant_by_model"]
        assert dominant["dlrm-rmc1"] == "embedding"
        assert dominant["wnd"] == "fc"
        assert dominant["dien"] == "recurrent"

    def test_fig4_crossovers_exist(self):
        result = run_experiment("figure-4")
        crossovers = result.metadata["crossover_by_model"]
        assert all(c is None or 1 <= c <= 1024 for c in crossovers.values())
        # At least one cheap model should not win on the GPU at batch 1.
        assert crossovers["ncf"] is None or crossovers["ncf"] > 1

    def test_fig5_production_heavier_tail(self):
        result = run_experiment("figure-5", num_samples=5000)
        assert (
            result.metadata["production_tail_ratio_p99_p50"]
            > result.metadata["lognormal_tail_ratio_p99_p50"]
        )
        assert 0.35 <= result.metadata["production_top_quartile_work_share"] <= 0.8

    def test_fig6_large_queries_half_the_work(self):
        result = run_experiment("figure-6", num_queries=500, models=["dlrm-rmc1", "wnd"])
        for row in result.rows:
            small_share, large_share = row[1], row[2]
            assert small_share + large_share == pytest.approx(1.0, abs=0.01)
            assert 0.3 <= large_share <= 0.7
            assert row[3] > 1.0  # GPU accelerates the large-query population

    def test_fig7_subsample_gap_small(self):
        result = run_experiment(
            "figure-7", num_nodes=6, queries_per_node=60, subsample_nodes=2
        )
        assert result.metadata["max_gap"] < 0.4
        # The gap is now reported per balancing policy (random + load-aware).
        assert set(result.metadata["gap_by_policy"]) == {
            "random", "least-outstanding"
        }
        assert len(result.rows) == 4  # 2 cases x 2 policies


class TestHeavyDriversReduced:
    def test_fig9_optimal_batch_grows_with_relaxed_sla(self):
        result = run_experiment(
            "figure-9",
            models=["dlrm-rmc3"],
            tiers=[SLATier.LOW, SLATier.HIGH],
            batch_sizes=[32, 64, 128, 256, 512],
            num_queries=150,
            capacity_iterations=3,
        )
        optima = result.metadata["optimal_batch"]["dlrm-rmc3"]
        assert optima["high"] >= optima["low"]

    def test_fig10_interior_optimum(self):
        result = run_experiment(
            "figure-10",
            cases=[("dlrm-rmc1", 256)],
            thresholds=[1, 128, 256, 512, 1000],
            num_queries=150,
            capacity_iterations=3,
        )
        optimum = result.metadata["optimal_threshold"]["dlrm-rmc1"]
        assert 1 < optimum <= 1000

    def test_fig13_tuned_batch_reduces_tails(self):
        # Reduced-fidelity smoke check: at this miniature scale the p95 is
        # noisy around the saturation knee, so only the p99 direction is
        # asserted strictly; the benchmark runs the full-scale experiment.
        result = run_experiment(
            "figure-13",
            num_nodes=1,
            num_cores_per_node=12,
            duration_s=4.0,
            load_fraction=1.1,
        )
        assert result.metadata["p99_reduction"] > 1.0
        assert result.metadata["p95_reduction"] > 0.7

    def test_fig13_policy_sweep_metadata(self):
        result = run_experiment(
            "figure-13",
            num_nodes=2,
            num_cores_per_node=8,
            duration_s=3.0,
            policies=("random", "least-outstanding"),
        )
        by_policy = result.metadata["by_policy"]
        assert set(by_policy) == {"random", "least-outstanding"}
        assert len(result.rows) == 4  # 2 policies x (fixed, tuned)
        for policy, entry in by_policy.items():
            shares = entry["tuned_query_shares"]
            assert sum(shares.values()) == pytest.approx(1.0)
        # The headline reductions report the first policy in the sweep.
        assert result.metadata["p95_reduction"] == pytest.approx(
            by_policy["random"]["p95_reduction"]
        )
