"""Fleet-scale serving walkthrough: cluster simulation and parallel sweeps.

Three stages build on the ``repro.serving.cluster`` subsystem:

1. serve one query stream across a heterogeneous fleet (CPU-only servers
   mixed with an accelerator-attached one) under each load-balancing policy
   and compare fleet tail latency and per-server load shares;
2. measure the fleet's QPS-at-SLA capacity per policy with the bisection
   capacity search;
3. regenerate a fig9-style batch-size sweep through the parallel experiment
   runner twice — the second pass is served entirely from the on-disk result
   cache — and report the measured wall-clock speedup.

Run with::

    python examples/cluster_fleet.py
"""

import tempfile

from repro.execution import build_engine_pair
from repro.experiments import SweepRunner
from repro.queries import LoadGenerator
from repro.runtime import CapacitySearch
from repro.serving import (
    ClusterServer,
    ClusterSimulator,
    ServingConfig,
    SLATier,
    sla_target,
)
from repro.utils import format_table

MODEL = "dlrm-rmc1"
POLICIES = ("round-robin", "least-outstanding", "power-of-two")
CORES_PER_SERVER = 8
BATCH_SIZE = 256


def build_fleet():
    """Three CPU-only Skylake servers plus one with a GTX 1080 Ti attached."""
    cpu_engines = build_engine_pair(MODEL, "skylake", None)
    gpu_engines = build_engine_pair(MODEL, "skylake", "gtx1080ti")
    cpu_config = ServingConfig(batch_size=BATCH_SIZE, num_cores=CORES_PER_SERVER)
    gpu_config = ServingConfig(
        batch_size=BATCH_SIZE, num_cores=CORES_PER_SERVER, offload_threshold=512
    )
    servers = [
        ClusterServer(cpu_engines, cpu_config, f"cpu-{index}") for index in range(3)
    ]
    servers.append(ClusterServer(gpu_engines, gpu_config, "gpu-0"))
    return servers


def compare_policies(rate_qps: float = 8000.0, num_queries: int = 3000) -> None:
    """Serve one near-saturation stream under each policy and compare tails."""
    servers = build_fleet()
    queries = LoadGenerator(seed=42).with_rate(rate_qps).generate(num_queries)
    rows = []
    for policy in POLICIES:
        result = ClusterSimulator(servers, policy).run(queries)
        shares = "/".join(f"{s.query_share * 100:.0f}%" for s in result.per_server)
        rows.append(
            [
                policy,
                round(result.p95_latency_s * 1e3, 2),
                round(result.p99_latency_s * 1e3, 2),
                round(result.fleet_cpu_utilization * 100, 1),
                shares,
            ]
        )
    print(
        format_table(
            ["policy", "p95-ms", "p99-ms", "fleet-cpu-%", "per-server share"],
            rows,
            title=(
                f"Heterogeneous fleet (3x CPU + 1x GPU) at {rate_qps:.0f} QPS "
                f"offered ({MODEL})"
            ),
        )
    )


def fleet_capacity(num_queries: int = 300, iterations: int = 4) -> None:
    """QPS-at-SLA capacity of the fleet under each balancing policy."""
    servers = build_fleet()
    target = sla_target(MODEL, SLATier.MEDIUM)
    generator = LoadGenerator(seed=42)
    rows = []
    for policy in POLICIES:
        outcome = CapacitySearch.for_fleet(
            servers, policy, target.latency_s, generator, num_queries=num_queries,
            iterations=iterations, max_queries=3000,
        ).run()
        rows.append([policy, round(outcome.max_qps, 1)])
    print(
        format_table(
            ["policy", "max-qps"],
            rows,
            title=f"Fleet capacity at the {target.latency_ms:.0f} ms p95 SLA",
        )
    )


def parallel_sweep_demo(batch_sizes=(64, 256, 1024), processes=None) -> None:
    """Run a fig9-style sweep through the parallel runner, twice, with caching."""
    points = [
        {
            "models": ("dlrm-rmc1",),
            "tiers": (SLATier.MEDIUM,),
            "batch_sizes": (batch,),
            "num_queries": 200,
            "capacity_iterations": 3,
        }
        for batch in batch_sizes
    ]
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(processes=processes, cache_dir=cache_dir)
        cold = runner.run("figure-9", points)
        warm = runner.run("figure-9", points)

    rows = []
    for point, result in zip(points, cold.results):
        batch = point["batch_sizes"][0]
        rows.append([batch, result.column(f"qps@b{batch}")[0]])
    print(
        format_table(
            ["batch-size", "max-qps"],
            rows,
            title="fig9-style sweep points (computed by the parallel runner)",
        )
    )
    speedup = cold.elapsed_s / max(warm.elapsed_s, 1e-9)
    print(
        f"cold pass: {cold.elapsed_s:.2f}s on {cold.processes} worker(s), "
        f"{cold.cache_misses} point(s) computed\n"
        f"warm pass: {warm.elapsed_s:.2f}s, {warm.cache_hits}/{len(points)} "
        f"cache hits -> {speedup:.0f}x faster from cache reuse"
    )


def main() -> None:
    """Run the three fleet-scale stages end to end."""
    compare_policies()
    print()
    fleet_capacity()
    print()
    parallel_sweep_demo()


if __name__ == "__main__":
    main()
