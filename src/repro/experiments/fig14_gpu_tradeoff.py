"""Fig. 14: CPU-only vs CPU+GPU across tail-latency targets.

For one model (DLRM-RMC1 in the paper), sweeps the tail-latency target and
reports, for the CPU-only and CPU+GPU schedulers: the achievable QPS, the
share of work processed by the GPU, and QPS/Watt.  The paper's findings are
that the GPU unlocks lower latency targets and higher QPS everywhere, that
the GPU's share of work shrinks as the target relaxes, and that QPS/Watt only
favours the GPU at tight targets.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.batch_tuner import BatchSizeTuner
from repro.core.offload_tuner import OffloadThresholdTuner
from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.hardware.power import SystemPowerModel
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacitySearch
from repro.serving.simulator import ServingConfig


@register_experiment("figure-14")
def run(
    model: str = "dlrm-rmc1",
    latency_targets_ms: Sequence[float] = (50.0, 75.0, 100.0, 125.0, 150.0),
    cpu_platform: str = "skylake",
    gpu_platform: str = "gtx1080ti",
    num_queries: int = 400,
    capacity_iterations: int = 4,
    seed: int = 5,
) -> ExperimentResult:
    """Sweep tail-latency targets for CPU-only and CPU+GPU scheduling."""
    if not latency_targets_ms:
        raise ValueError("latency_targets_ms must name at least one target")
    engines = build_engine_pair(model, cpu_platform, gpu_platform)
    generator = LoadGenerator(seed=seed)
    power_model = SystemPowerModel(engines.cpu.platform, engines.gpu.platform)

    result = ExperimentResult(
        experiment_id="figure-14",
        title=f"CPU vs CPU+GPU across tail-latency targets ({model})",
        headers=[
            "sla-ms",
            "cpu-qps",
            "gpu-qps",
            "gpu-work-fraction",
            "cpu-qps/w",
            "gpu-qps/w",
        ],
    )
    gpu_fractions = []
    gpu_wins = []
    gpu_efficient = []
    for sla_ms in latency_targets_ms:
        sla_s = sla_ms / 1e3
        batch_tuner = BatchSizeTuner(
            engines, generator,
            num_queries=num_queries, capacity_iterations=capacity_iterations,
        )
        cpu_tuning = batch_tuner.tune(sla_s)
        cpu_config = ServingConfig(batch_size=max(1, cpu_tuning.best_batch_size))
        cpu_outcome = CapacitySearch.for_server(
            engines, cpu_config, sla_s, generator,
            num_queries=num_queries, iterations=capacity_iterations,
        ).run()
        cpu_result = cpu_outcome.result
        cpu_util = cpu_result.cpu_utilization if cpu_result else 0.0
        cpu_power = power_model.power(cpu_util, 0.0, cpu_outcome.max_qps)

        offload_tuner = OffloadThresholdTuner(
            engines, generator,
            num_queries=num_queries, capacity_iterations=capacity_iterations,
        )
        gpu_tuning = offload_tuner.tune(max(1, cpu_tuning.best_batch_size), sla_s)
        gpu_config = ServingConfig(
            batch_size=max(1, cpu_tuning.best_batch_size),
            offload_threshold=gpu_tuning.best_threshold,
        )
        gpu_outcome = CapacitySearch.for_server(
            engines, gpu_config, sla_s, generator,
            num_queries=num_queries, iterations=capacity_iterations,
        ).run()
        gpu_result = gpu_outcome.result
        gpu_work = gpu_result.gpu_work_fraction if gpu_result else 0.0
        gpu_power = power_model.power(
            gpu_result.cpu_utilization if gpu_result else 0.0,
            gpu_result.gpu_utilization if gpu_result else 0.0,
            gpu_outcome.max_qps,
        )
        gpu_fractions.append(gpu_work)

        cpu_qpw = cpu_outcome.max_qps / cpu_power.cpu_watts if cpu_power.cpu_watts else 0.0
        gpu_qpw = gpu_power.qps_per_watt if gpu_power.total_watts else 0.0
        gpu_wins.append(gpu_outcome.max_qps > cpu_outcome.max_qps)
        if gpu_qpw > cpu_qpw:
            gpu_efficient.append(f"{sla_ms:g}")
        result.add_row(
            sla_ms,
            round(cpu_outcome.max_qps, 1),
            round(gpu_outcome.max_qps, 1),
            round(gpu_work, 3),
            round(cpu_qpw, 2),
            round(gpu_qpw, 2),
        )

    result.metadata["gpu_work_fraction_by_target"] = dict(
        zip([float(t) for t in latency_targets_ms], gpu_fractions)
    )
    efficient = f"{', '.join(gpu_efficient)} ms" if gpu_efficient else "no target"
    result.notes = (
        f"CPU+GPU achieves higher QPS at {sum(gpu_wins)} of {len(gpu_wins)} targets; "
        f"the GPU's share of work goes {gpu_fractions[0]:.3f} -> {gpu_fractions[-1]:.3f} "
        f"from the {latency_targets_ms[0]:g} ms to the {latency_targets_ms[-1]:g} ms "
        f"target; QPS/Watt favours the GPU at {efficient}. "
        "Where these depart from the paper's findings, see docs/claims.md "
        "(Known deviations)."
    )
    return result
