"""Ablation studies for the modelling choices DeepRecSched's results rest on.

Three ablations isolate the modelling decisions that drive DeepRecSched's
behaviour:

* **Arrival-process ablation** — the paper notes that assuming fixed or
  uniform inter-arrival gaps (as prior work often does) instead of the
  Poisson arrivals observed in production changes the achievable
  latency-bounded throughput.  The ablation measures capacity at a fixed
  operating point under each arrival process.
* **Query-size-distribution ablation** — Section VI-A shows that tuning the
  batch size against a lognormal size distribution and then deploying it on
  production-shaped traffic costs 1.2-1.7x in throughput.  The ablation tunes
  under each distribution and cross-evaluates.
* **Cache-contention ablation** — the LLC contention model is what couples
  request-level parallelism to memory performance; disabling it (zero
  contention slope) quantifies its effect on capacity at small vs large batch
  sizes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.execution.cpu_engine import CPUEngine
from repro.execution.engine import EnginePair, build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.hardware.cache import CacheHierarchy
from repro.hardware.cpu import get_cpu
from repro.queries.arrival import get_arrival_process
from repro.queries.generator import LoadGenerator
from repro.queries.size_dist import LognormalQuerySizes, ProductionQuerySizes
from repro.runtime.capacity import CapacitySearch, run_capacity_searches
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target


@register_experiment("ablation-arrival")
def run_arrival_ablation(
    model: str = "dlrm-rmc1",
    batch_size: int = 512,
    tier: SLATier = SLATier.MEDIUM,
    arrival_processes: Sequence[str] = ("poisson", "fixed", "uniform"),
    num_queries: int = 400,
    capacity_iterations: int = 4,
    seed: int = 7,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Capacity of one operating point under different arrival processes.

    Poisson arrivals produce burstier queueing than fixed/uniform gaps, so the
    capacity under the production (Poisson) assumption is the most
    conservative of the three — sizing a deployment with a smoother arrival
    model overstates what the SLA can sustain.  The searches run as one
    batch, so ``jobs``/``capacity_cache_dir`` run them concurrently and
    replay them (bit-identical results).
    """
    engines = build_engine_pair(model, "skylake", None)
    target = sla_target(model, tier)
    result = ExperimentResult(
        experiment_id="ablation-arrival",
        title=f"Capacity vs arrival-process assumption ({model}, batch {batch_size})",
        headers=["arrival-process", "max-qps", "p95-ms-at-capacity"],
    )
    searches = [
        CapacitySearch.for_server(
            engines,
            ServingConfig(batch_size=batch_size),
            target.latency_s,
            LoadGenerator(arrival=get_arrival_process(name, rate_qps=100.0), seed=seed),
            num_queries=num_queries,
            iterations=capacity_iterations,
        )
        for name in arrival_processes
    ]
    outcomes = run_capacity_searches(
        searches, jobs=jobs, warm_start_cache=capacity_cache_dir
    )
    capacities = {}
    for name, outcome in zip(arrival_processes, outcomes):
        capacities[name] = outcome.max_qps
        p95_ms = outcome.result.p95_latency_s * 1e3 if outcome.result else 0.0
        result.add_row(name, round(outcome.max_qps, 1), round(p95_ms, 2))
    result.metadata["capacity_by_arrival"] = capacities
    result.notes = (
        "Smoother-than-Poisson arrival assumptions overstate the sustainable "
        "load under a tail-latency SLA."
    )
    return result


@register_experiment("ablation-size-dist")
def run_size_distribution_ablation(
    model: str = "dlrm-rmc1",
    tier: SLATier = SLATier.MEDIUM,
    batch_sizes: Sequence[int] = (64, 128, 256, 512, 1024),
    num_queries: int = 400,
    capacity_iterations: int = 4,
    seed: int = 7,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Tune the batch size under each size distribution, cross-evaluate on the other.

    Reproduces the Section VI-A observation that a lognormal-tuned operating
    point loses throughput when deployed against production-shaped traffic.
    The tuning grid runs as one batch of searches and the cross-evaluation
    as a second, so ``jobs > 1`` runs each batch's searches concurrently
    (bit-identical results).  The cross-evaluation re-asks the tuning
    sweep's question at the optimum, so with a ``capacity_cache_dir`` those
    repeat searches replay instantly.
    """
    engines = build_engine_pair(model, "skylake", None)
    target = sla_target(model, tier)
    distributions = {
        "production": ProductionQuerySizes(),
        "lognormal": LognormalQuerySizes(),
    }

    def capacities(points: Sequence[Tuple[int, str]]) -> List[float]:
        searches = [
            CapacitySearch.for_server(
                engines,
                ServingConfig(batch_size=batch),
                target.latency_s,
                LoadGenerator(sizes=distributions[dist_name], seed=seed),
                num_queries=num_queries,
                iterations=capacity_iterations,
            )
            for batch, dist_name in points
        ]
        outcomes = run_capacity_searches(
            searches, jobs=jobs, warm_start_cache=capacity_cache_dir
        )
        return [outcome.max_qps for outcome in outcomes]

    grid = [(batch, dist_name) for dist_name in distributions for batch in batch_sizes]
    tuned = dict(zip(grid, capacities(grid)))
    optima = {}
    for dist_name in distributions:
        best_batch, best_qps = batch_sizes[0], 0.0
        for batch in batch_sizes:
            qps = tuned[batch, dist_name]
            # Prefer the smaller batch on near-ties (flat optimum region).
            if qps > best_qps * 1.02:
                best_batch, best_qps = batch, qps
        optima[dist_name] = best_batch

    result = ExperimentResult(
        experiment_id="ablation-size-dist",
        title=f"Batch size tuned under one size distribution, evaluated on another ({model})",
        headers=["tuned-on", "optimal-batch", "qps-on-production", "qps-on-lognormal"],
    )
    cross = [
        (optima[tuned_on], evaluated_on)
        for tuned_on in distributions
        for evaluated_on in ("production", "lognormal")
    ]
    cross_qps = iter(capacities(cross))
    production_qps = {}
    for dist_name in distributions:
        batch = optima[dist_name]
        on_production = next(cross_qps)
        on_lognormal = next(cross_qps)
        production_qps[dist_name] = on_production
        result.add_row(dist_name, batch, round(on_production, 1), round(on_lognormal, 1))

    mismatch_penalty = (
        production_qps["production"] / production_qps["lognormal"]
        if production_qps["lognormal"]
        else float("inf")
    )
    result.metadata["optimal_batch"] = optima
    result.metadata["mismatch_penalty"] = mismatch_penalty
    result.notes = (
        f"Deploying the lognormal-tuned batch size on production traffic costs "
        f"{mismatch_penalty:.2f}x throughput (paper: 1.2-1.7x)."
    )
    return result


@register_experiment("ablation-cache-contention")
def run_cache_contention_ablation(
    model: str = "dlrm-rmc1",
    platform: str = "broadwell",
    tier: SLATier = SLATier.MEDIUM,
    batch_sizes: Sequence[int] = (32, 256, 1024),
    num_queries: int = 400,
    capacity_iterations: int = 4,
    seed: int = 7,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Capacity with and without the LLC contention model.

    With contention disabled (zero slope), small batches stop paying a
    penalty for keeping many cores active, so the gap between small- and
    large-batch capacity shrinks — quantifying how much of the batch-size
    preference comes from the cache model versus the efficiency curves.
    All searches run as one batch, so ``jobs > 1`` runs them concurrently
    (bit-identical results).
    """
    cpu = get_cpu(platform)
    no_contention_cache = CacheHierarchy(
        policy=cpu.cache.policy, llc_bytes=cpu.cache.llc_bytes, contention_slope=0.0
    )
    cpu_no_contention = replace(cpu, cache=no_contention_cache)
    target = sla_target(model, tier)
    generator = LoadGenerator(seed=seed)

    result = ExperimentResult(
        experiment_id="ablation-cache-contention",
        title=f"Capacity with and without LLC contention ({model}, {platform})",
        headers=["batch-size", "qps-with-contention", "qps-without-contention", "ratio"],
    )
    platforms = (("with", cpu), ("without", cpu_no_contention))
    searches = [
        CapacitySearch.for_server(
            EnginePair(cpu=CPUEngine(
                build_engine_pair(model, platform, None).cpu.model, cpu_platform
            )),
            ServingConfig(batch_size=batch),
            target.latency_s,
            generator,
            num_queries=num_queries,
            iterations=capacity_iterations,
        )
        for batch in batch_sizes
        for _label, cpu_platform in platforms
    ]
    outcomes = iter(run_capacity_searches(
        searches, jobs=jobs, warm_start_cache=capacity_cache_dir
    ))
    ratios = {}
    for batch in batch_sizes:
        capacities = {label: next(outcomes).max_qps for label, _platform in platforms}
        ratio = (
            capacities["without"] / capacities["with"] if capacities["with"] else 0.0
        )
        ratios[batch] = ratio
        result.add_row(
            batch,
            round(capacities["with"], 1),
            round(capacities["without"], 1),
            round(ratio, 3),
        )
    result.metadata["uplift_without_contention"] = ratios
    result.notes = (
        "Removing LLC contention helps small batches (many active cores) more "
        "than large ones, confirming contention as a driver of the batch-size choice."
    )
    return result
