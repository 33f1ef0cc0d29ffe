"""Fig. 12: where the optimal batch size comes from.

Three panels, all produced by sweeping batch size and finding the optimum
under a latency target:

* (a) the optimum shifts with the tail-latency target and with the query-size
  distribution (production vs lognormal) — DLRM-RMC1;
* (b) the optimum differs across models with different bottlenecks;
* (c) the optimum differs across CPU platforms (Broadwell vs Skylake) —
  DLRM-RMC3.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.queries.generator import LoadGenerator
from repro.queries.size_dist import LognormalQuerySizes, ProductionQuerySizes
from repro.runtime.capacity import CapacitySearch
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target

DEFAULT_BATCH_SIZES = (32, 64, 128, 256, 512, 1024)


def _optimal_batch(
    engines,
    generator: LoadGenerator,
    sla_latency_s: float,
    batch_sizes: Sequence[int],
    num_queries: int,
    capacity_iterations: int,
) -> tuple:
    best_batch, best_qps = batch_sizes[0], 0.0
    for batch in batch_sizes:
        outcome = CapacitySearch.for_server(
            engines,
            ServingConfig(batch_size=batch),
            sla_latency_s,
            generator,
            num_queries=num_queries,
            iterations=capacity_iterations,
        ).run()
        # Prefer the smaller batch size on near-ties: the QPS surface is flat
        # near the optimum, and requiring a 2% improvement keeps the reported
        # optimum stable across seeds and fidelity settings.
        if outcome.max_qps > best_qps * 1.02:
            best_batch, best_qps = batch, outcome.max_qps
    return best_batch, best_qps


@register_experiment("figure-12")
def run(
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    tiers: Sequence[SLATier] = (SLATier.LOW, SLATier.MEDIUM, SLATier.HIGH),
    panel_a_model: str = "dlrm-rmc1",
    panel_b_models: Sequence[str] = ("dlrm-rmc1", "dlrm-rmc3", "dien", "wnd"),
    panel_c_model: str = "dlrm-rmc3",
    num_queries: int = 400,
    capacity_iterations: int = 4,
    seed: int = 3,
) -> ExperimentResult:
    """Find optimal batch sizes across SLA targets, size distributions, models, platforms."""
    result = ExperimentResult(
        experiment_id="figure-12",
        title="Optimal per-request batch size across targets, distributions, models, platforms",
        headers=["panel", "case", "tier", "optimal-batch", "qps"],
    )
    metadata: Dict[str, Dict] = {"panel_a": {}, "panel_b": {}, "panel_c": {}}

    # Panel (a): SLA tiers x query-size distributions for one model.
    engines_a = build_engine_pair(panel_a_model, "skylake", None)
    for dist_name, sizes in (
        ("production", ProductionQuerySizes()),
        ("lognormal", LognormalQuerySizes()),
    ):
        generator = LoadGenerator(sizes=sizes, seed=seed)
        for tier in tiers:
            target = sla_target(panel_a_model, tier)
            batch, qps = _optimal_batch(
                engines_a, generator, target.latency_s, batch_sizes,
                num_queries, capacity_iterations,
            )
            metadata["panel_a"][f"{dist_name}-{tier.value}"] = batch
            result.add_row("a", f"{panel_a_model}/{dist_name}", tier.value, batch, round(qps, 1))

    # Panel (b): model diversity at the medium tier.
    generator_b = LoadGenerator(seed=seed)
    for model in panel_b_models:
        engines_b = build_engine_pair(model, "skylake", None)
        target = sla_target(model, SLATier.HIGH)
        batch, qps = _optimal_batch(
            engines_b, generator_b, target.latency_s, batch_sizes,
            num_queries, capacity_iterations,
        )
        metadata["panel_b"][model] = batch
        result.add_row("b", model, SLATier.HIGH.value, batch, round(qps, 1))

    # Panel (c): hardware platforms for one model.
    generator_c = LoadGenerator(seed=seed)
    for platform in ("broadwell", "skylake"):
        engines_c = build_engine_pair(panel_c_model, platform, None)
        target = sla_target(panel_c_model, SLATier.HIGH)
        batch, qps = _optimal_batch(
            engines_c, generator_c, target.latency_s, batch_sizes,
            num_queries, capacity_iterations,
        )
        metadata["panel_c"][platform] = batch
        result.add_row("c", f"{panel_c_model}/{platform}", SLATier.HIGH.value, batch, round(qps, 1))

    result.metadata.update(metadata)
    panel_a = metadata["panel_a"]
    tier_names = " -> ".join(tier.value for tier in tiers)
    by_tier = {
        dist_name: " -> ".join(str(panel_a[f"{dist_name}-{tier.value}"]) for tier in tiers)
        for dist_name in ("production", "lognormal")
    }
    by_model = ", ".join(f"{model} {metadata['panel_b'][model]}" for model in panel_b_models)
    panel_c = metadata["panel_c"]
    result.notes = (
        f"Optimal batch sizes by target tier ({tier_names}): production "
        f"{by_tier['production']}, lognormal {by_tier['lognormal']}. At the high "
        f"target: {by_model}; {panel_c_model} on Broadwell {panel_c['broadwell']}, "
        f"on Skylake {panel_c['skylake']}. Where these orderings depart from the "
        "paper's, see docs/claims.md (Known deviations)."
    )
    return result
