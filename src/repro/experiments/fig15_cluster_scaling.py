"""Fig. 15 (extension): fleet-scale serving capacity vs fleet size and policy.

The paper's evaluation stops at one server plus a trace-driven production
cluster; this extension experiment measures how latency-bounded throughput
(QPS at the p95 SLA) scales as identical servers are added behind each
load-balancing policy, and what a heterogeneous fleet (CPU-only servers mixed
with accelerator-attached ones running DeepRecSched offloading) sustains.

Reported per policy:

* fleet capacity at each fleet size, with scaling efficiency relative to
  ``N x`` the single-server capacity (1.0 = perfect linear scaling);
* capacity of a mixed CPU/GPU fleet at the largest size.

Load-aware policies (least-outstanding, power-of-two-choices) track linear
scaling closely; round-robin gives up capacity because it keeps feeding
servers that are momentarily behind, which inflates the fleet tail.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacityCache, CapacitySearch, run_capacity_searches
from repro.serving.cluster import ClusterServer, homogeneous_fleet
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target

DEFAULT_FLEET_SIZES = (1, 2, 4)
DEFAULT_POLICIES = ("round-robin", "least-outstanding", "power-of-two")


@register_experiment("figure-15")
def run(
    model: str = "dlrm-rmc1",
    tier: SLATier = SLATier.MEDIUM,
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    cpu_platform: str = "skylake",
    gpu_platform: str = "gtx1080ti",
    num_cores: int = 8,
    batch_size: int = 256,
    offload_threshold: int = 512,
    hetero_fleet_size: int = 0,
    num_queries: int = 250,
    capacity_iterations: int = 4,
    max_queries: int = 3000,
    seed: int = 5,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Sweep fleet size x balancing policy; add one heterogeneous fleet per policy.

    ``hetero_fleet_size`` of 0 reuses the largest homogeneous fleet size; the
    heterogeneous fleet attaches an accelerator (with DeepRecSched query-size
    offloading at ``offload_threshold``) to every other server.

    All of the sweep's capacity searches are submitted into the invocation's
    shared worker pool as one batch (:func:`run_capacity_searches`), so
    with ``jobs > 1`` they run concurrently, one task per search — results
    stay identical to the serial sweep.  ``capacity_cache_dir`` replays previously recorded
    identical searches (bit-identical warm starts).
    """
    sizes = sorted(set(int(n) for n in fleet_sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError(f"fleet_sizes must be positive, got {fleet_sizes!r}")
    target = sla_target(model, tier)
    config = ServingConfig(batch_size=batch_size, num_cores=num_cores)
    cpu_engines = build_engine_pair(model, cpu_platform, None)
    generator = LoadGenerator(seed=seed)

    hetero_size = hetero_fleet_size if hetero_fleet_size else sizes[-1]
    gpu_engines = build_engine_pair(model, cpu_platform, gpu_platform)
    gpu_config = ServingConfig(
        batch_size=batch_size, num_cores=num_cores, offload_threshold=offload_threshold
    )
    # Accelerators go on odd indices; a fleet of one gets the accelerator so
    # the mixed-fleet row never silently degenerates to CPU-only.
    hetero_servers = [
        ClusterServer(
            engines=gpu_engines if (index % 2 or hetero_size == 1) else cpu_engines,
            config=gpu_config if (index % 2 or hetero_size == 1) else config,
            name=f"{'gpu' if (index % 2 or hetero_size == 1) else 'cpu'}-{index}",
        )
        for index in range(hetero_size)
    ]
    server_kinds = {
        "gpu" if server.engines.has_accelerator else "cpu" for server in hetero_servers
    }
    hetero_label = (
        "hetero cpu+gpu" if len(server_kinds) == 2 else f"{server_kinds.pop()}-only"
    )

    result = ExperimentResult(
        experiment_id="figure-15",
        title=f"Fleet capacity vs size and balancing policy ({model}, {target.latency_ms:.0f} ms p95)",
        headers=["policy", "servers", "fleet", "max-qps", "scaling-x", "efficiency"],
    )

    warm_start = CapacityCache(capacity_cache_dir) if capacity_cache_dir else None

    # One search description per (policy, fleet) point; the whole grid is
    # submitted into the shared pool at once, so searches interleave their
    # candidate evaluations instead of draining one bisection at a time.
    searches = []
    for policy in policies:
        for size in sizes:
            searches.append(
                CapacitySearch.for_fleet(
                    homogeneous_fleet(cpu_engines, config, size),
                    policy,
                    target.latency_s,
                    generator,
                    num_queries=num_queries,
                    iterations=capacity_iterations,
                    max_queries=max_queries,
                )
            )
        searches.append(
            CapacitySearch.for_fleet(
                hetero_servers,
                policy,
                target.latency_s,
                generator,
                num_queries=num_queries,
                iterations=capacity_iterations,
                max_queries=max_queries,
            )
        )
    outcomes = iter(run_capacity_searches(searches, jobs=jobs, warm_start_cache=warm_start))

    qps_by_policy: Dict[str, Dict[str, float]] = {}
    efficiency_by_policy: Dict[str, Dict[str, float]] = {}
    hetero_qps: Dict[str, float] = {}
    for policy in policies:
        qps_by_policy[policy] = {}
        efficiency_by_policy[policy] = {}
        base_qps = 0.0
        for size in sizes:
            qps = next(outcomes).max_qps
            if size == sizes[0]:
                base_qps = qps / sizes[0] if sizes[0] else 0.0
            scaling = qps / base_qps if base_qps else 0.0
            efficiency = scaling / size if size else 0.0
            qps_by_policy[policy][str(size)] = qps
            efficiency_by_policy[policy][str(size)] = efficiency
            result.add_row(
                policy, size, "homogeneous", round(qps, 1), round(scaling, 2),
                round(efficiency, 3),
            )
        qps = next(outcomes).max_qps
        hetero_qps[policy] = qps
        scaling = qps / base_qps if base_qps else 0.0
        result.add_row(
            policy, hetero_size, hetero_label, round(qps, 1), round(scaling, 2),
            round(scaling / hetero_size, 3),
        )

    result.metadata["qps_by_policy"] = qps_by_policy
    result.metadata["scaling_efficiency"] = efficiency_by_policy
    result.metadata["hetero_qps"] = hetero_qps
    result.metadata["sla_latency_ms"] = target.latency_ms
    if warm_start is not None:
        result.metadata["capacity_cache_stats"] = dict(warm_start.stats)
    result.notes = (
        "Load-aware balancing (least-outstanding, power-of-two) preserves "
        "near-linear QPS-at-SLA scaling; heterogeneous fleets add accelerator "
        "capacity on top of the CPU servers."
    )
    return result
