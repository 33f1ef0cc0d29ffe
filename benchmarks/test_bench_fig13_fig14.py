"""Benchmarks regenerating the deployment figures (Fig. 13 and Fig. 14)."""


def test_bench_fig13_production_cluster(run_and_report):
    """Fig. 13: tuned batch size reduces p95/p99 latency on a loaded fleet."""
    result = run_and_report("figure-13")
    assert result.metadata["p95_reduction"] >= 1.0
    assert result.metadata["p99_reduction"] > 1.0


def test_bench_fig14_cpu_gpu_tradeoff(run_and_report):
    """Fig. 14: CPU+GPU raises QPS everywhere; GPU share falls as targets relax."""
    result = run_and_report(
        "figure-14",
        num_queries=300,
        capacity_iterations=3,
    )
    cpu_qps = result.column("cpu-qps")
    gpu_qps = result.column("gpu-qps")
    assert all(g > c for g, c in zip(gpu_qps, cpu_qps))
    fractions = result.column("gpu-work-fraction")
    # The share of work on the accelerator does not grow materially as the
    # target relaxes (the paper sees it fall; our tuned threshold keeps it
    # roughly flat — see docs/claims.md).
    assert fractions[-1] <= fractions[0] + 0.10
