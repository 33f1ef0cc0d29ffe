"""Fig. 9: request- vs batch-level parallelism trade-off.

Sweeps the per-request batch size and reports latency-bounded throughput
(max QPS under the p95 SLA):

* top panel — one model (DLRM-RMC3) at two tail-latency targets, showing the
  optimal batch size growing as the target relaxes;
* bottom panel — three models with different bottlenecks (embedding-, MLP-,
  and attention-dominated), showing the optimum varies by model.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.queries.generator import LoadGenerator
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target

DEFAULT_BATCH_SIZES = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_MODELS = ("dlrm-rmc1", "dlrm-rmc3", "dien")


@register_experiment("figure-9")
def run(
    models: Sequence[str] = DEFAULT_MODELS,
    tiers: Sequence[SLATier] = (SLATier.LOW, SLATier.MEDIUM),
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    cpu_platform: str = "skylake",
    num_queries: int = 500,
    capacity_iterations: int = 5,
    seed: int = 3,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Sweep QPS over batch sizes for several models and latency targets.

    Each (model, tier) row's batch-size searches are submitted into the
    invocation's shared worker pool concurrently
    (:func:`run_capacity_searches`), so ``jobs > 1`` keeps the pool full
    across the whole row rather than within one bisection;
    ``capacity_cache_dir`` replays previously recorded searches — both
    return results bit-identical to a cold serial run.
    """
    from repro.runtime.capacity import CapacityCache, CapacitySearch, run_capacity_searches

    result = ExperimentResult(
        experiment_id="figure-9",
        title="Latency-bounded throughput vs per-request batch size",
        headers=["model", "tier", "sla-ms"]
        + [f"qps@b{batch}" for batch in batch_sizes]
        + ["optimal-batch"],
    )
    warm_start = CapacityCache(capacity_cache_dir) if capacity_cache_dir else None
    optima: Dict[str, Dict[str, int]] = {}
    for model in models:
        engines = build_engine_pair(model, cpu_platform, None)
        generator = LoadGenerator(seed=seed)
        optima[model] = {}
        for tier in tiers:
            target = sla_target(model, tier)
            outcomes = run_capacity_searches(
                [
                    CapacitySearch.for_server(
                        engines,
                        ServingConfig(batch_size=batch),
                        target.latency_s,
                        generator,
                        num_queries=num_queries,
                        iterations=capacity_iterations,
                    )
                    for batch in batch_sizes
                ],
                jobs=jobs,
                warm_start_cache=warm_start,
            )
            qps_values = [outcome.max_qps for outcome in outcomes]
            best_index = max(range(len(batch_sizes)), key=lambda i: qps_values[i])
            optimal = batch_sizes[best_index]
            optima[model][tier.value] = optimal
            result.add_row(
                model,
                tier.value,
                round(target.latency_ms, 1),
                *[round(q, 1) for q in qps_values],
                optimal,
            )
    result.metadata["optimal_batch"] = optima
    if warm_start is not None:
        result.metadata["capacity_cache_stats"] = dict(warm_start.stats)
    result.notes = (
        "Optimal batch size grows with relaxed latency targets and is larger "
        "for embedding-dominated models than MLP/attention-dominated ones."
    )
    return result
