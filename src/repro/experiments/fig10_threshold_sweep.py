"""Fig. 10: accelerator query-size-threshold sweep.

With the CPU batch size fixed, sweeps the query-size threshold above which
whole queries are offloaded to the GPU and reports the latency-bounded
throughput at each point; the optimum sits between "all GPU" (threshold 1)
and "all CPU" (threshold = max query size) and differs per model.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.queries.generator import LoadGenerator
from repro.queries.size_dist import MAX_QUERY_SIZE
from repro.runtime.capacity import CapacitySearch
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target

DEFAULT_THRESHOLDS = (1, 64, 128, 256, 384, 512, 768, MAX_QUERY_SIZE)
DEFAULT_CASES = (("dlrm-rmc1", 512), ("dlrm-rmc3", 256), ("dien", 256))


@register_experiment("figure-10")
def run(
    cases: Sequence[Sequence] = DEFAULT_CASES,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    tier: SLATier = SLATier.MEDIUM,
    cpu_platform: str = "skylake",
    gpu_platform: str = "gtx1080ti",
    num_queries: int = 500,
    capacity_iterations: int = 5,
    seed: int = 3,
) -> ExperimentResult:
    """Sweep QPS over GPU offload thresholds for several models."""
    result = ExperimentResult(
        experiment_id="figure-10",
        title="Latency-bounded throughput vs accelerator query-size threshold",
        headers=["model", "batch-size", "sla-ms"]
        + [f"qps@t{threshold}" for threshold in thresholds]
        + ["optimal-threshold"],
    )
    optima: Dict[str, int] = {}
    for model, batch_size in cases:
        engines = build_engine_pair(model, cpu_platform, gpu_platform)
        generator = LoadGenerator(seed=seed)
        target = sla_target(model, tier)
        qps_values = []
        for threshold in thresholds:
            config = ServingConfig(batch_size=batch_size, offload_threshold=threshold)
            outcome = CapacitySearch.for_server(
                engines,
                config,
                target.latency_s,
                generator,
                num_queries=num_queries,
                iterations=capacity_iterations,
            ).run()
            qps_values.append(outcome.max_qps)
        best_index = max(range(len(thresholds)), key=lambda i: qps_values[i])
        optima[model] = thresholds[best_index]
        result.add_row(
            model,
            batch_size,
            round(target.latency_ms, 1),
            *[round(q, 1) for q in qps_values],
            thresholds[best_index],
        )
    result.metadata["optimal_threshold"] = optima
    result.notes = (
        "Throughput peaks at an intermediate query-size threshold: the GPU "
        "absorbs the heavy tail while small queries stay on the CPU."
    )
    return result
