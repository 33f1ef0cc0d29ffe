"""DeepRecSched: the end-to-end scheduler facade.

Combines the static production baseline, the batch-size tuner
(DeepRecSched-CPU), and the accelerator query-size-threshold tuner
(DeepRecSched-GPU) into one object that, for a given recommendation model,
hardware platform, SLA tier, and query workload, produces the operating
points the paper's headline evaluation (Fig. 11) compares:

* ``baseline()`` — fixed batch size (max query / cores), CPU only;
* ``optimize_cpu()`` — tuned per-request batch size, CPU only;
* ``optimize_gpu()`` — tuned batch size plus tuned offload threshold.

Each operating point is reported with its latency-bounded throughput (QPS
under the p95 SLA) and its power efficiency (QPS/Watt) from the system power
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.batch_tuner import BatchSizeTuner, BatchTuningResult
from repro.core.offload_tuner import OffloadThresholdTuner, OffloadTuningResult
from repro.core.static_scheduler import StaticSchedulerPolicy
from repro.execution.engine import EnginePair, build_engine_pair
from repro.hardware.power import SystemPowerModel
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacitySearch
from repro.serving.simulator import ServingConfig, SimulationResult
from repro.serving.sla import SLATier, sla_target
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class OperatingPoint:
    """One scheduler configuration with its measured throughput and power."""

    scheduler: str
    model_name: str
    sla_tier: SLATier
    sla_latency_s: float
    batch_size: int
    offload_threshold: Optional[int]
    qps: float
    qps_per_watt: float
    cpu_utilization: float
    gpu_utilization: float
    gpu_work_fraction: float

    @property
    def uses_accelerator(self) -> bool:
        """True when this operating point offloads queries to the accelerator."""
        return self.offload_threshold is not None


class DeepRecSched:
    """Scheduler that tunes request- vs batch-level parallelism and GPU offload."""

    def __init__(
        self,
        model: str,
        cpu_platform: str = "skylake",
        gpu_platform: Optional[str] = "gtx1080ti",
        load_generator: Optional[LoadGenerator] = None,
        num_cores: int = 0,
        num_queries: int = 800,
        capacity_iterations: int = 6,
        seed: int = 0,
    ) -> None:
        check_positive("num_queries", num_queries)
        self._model_name = model
        self._engines: EnginePair = build_engine_pair(model, cpu_platform, gpu_platform)
        self._load_generator = (
            load_generator if load_generator is not None else LoadGenerator(seed=seed)
        )
        self._num_cores = num_cores
        self._num_queries = num_queries
        self._capacity_iterations = capacity_iterations
        self._power_model = SystemPowerModel(
            self._engines.cpu.platform, self._engines.gpu.platform if self._engines.gpu else None
        )
        self._static_policy = StaticSchedulerPolicy(
            max_query_size=self._load_generator.sizes.max_size
        )

    @property
    def engines(self) -> EnginePair:
        """The CPU (and optional GPU) engines the scheduler drives."""
        return self._engines

    @property
    def model_name(self) -> str:
        """Zoo key of the model being scheduled."""
        return self._model_name

    # ------------------------------------------------------------------ #

    def _sla_seconds(self, tier: SLATier) -> float:
        return sla_target(self._model_name, tier).latency_s

    def _measure(
        self, config: ServingConfig, sla_latency_s: float
    ) -> tuple:
        outcome = CapacitySearch.for_server(
            self._engines,
            config,
            sla_latency_s,
            self._load_generator,
            num_queries=self._num_queries,
            iterations=self._capacity_iterations,
        ).run()
        return outcome.max_qps, outcome.result

    def _operating_point(
        self,
        scheduler: str,
        tier: SLATier,
        sla_latency_s: float,
        config: ServingConfig,
        qps: float,
        result: Optional[SimulationResult],
        include_gpu_power: bool,
    ) -> OperatingPoint:
        cpu_util = result.cpu_utilization if result is not None else 0.0
        gpu_util = result.gpu_utilization if result is not None else 0.0
        gpu_fraction = result.gpu_work_fraction if result is not None else 0.0
        power = self._power_model.power(
            cpu_utilization=cpu_util,
            gpu_utilization=gpu_util if include_gpu_power else 0.0,
            qps=qps,
        )
        # A CPU-only operating point does not pay for an idle accelerator.
        watts = power.total_watts if include_gpu_power else power.cpu_watts
        return OperatingPoint(
            scheduler=scheduler,
            model_name=self._model_name,
            sla_tier=tier,
            sla_latency_s=sla_latency_s,
            batch_size=config.batch_size,
            offload_threshold=config.offload_threshold,
            qps=qps,
            qps_per_watt=(qps / watts) if watts > 0 else 0.0,
            cpu_utilization=cpu_util,
            gpu_utilization=gpu_util,
            gpu_work_fraction=gpu_fraction,
        )

    # ------------------------------------------------------------------ #

    def baseline(self, tier: SLATier = SLATier.MEDIUM) -> OperatingPoint:
        """Static production baseline: fixed batch size, CPU only."""
        sla_latency_s = self._sla_seconds(tier)
        config = self._static_policy.serving_config(
            self._engines.cpu.platform, self._num_cores
        )
        qps, result = self._measure(config, sla_latency_s)
        return self._operating_point(
            "static", tier, sla_latency_s, config, qps, result, include_gpu_power=False
        )

    def optimize_cpu(self, tier: SLATier = SLATier.MEDIUM) -> OperatingPoint:
        """DeepRecSched-CPU: tuned per-request batch size, CPU only."""
        sla_latency_s = self._sla_seconds(tier)
        tuner = BatchSizeTuner(
            self._engines,
            self._load_generator,
            num_cores=self._num_cores,
            num_queries=self._num_queries,
            capacity_iterations=self._capacity_iterations,
        )
        tuning: BatchTuningResult = tuner.tune(sla_latency_s)
        config = ServingConfig(
            batch_size=tuning.best_batch_size, num_cores=self._num_cores
        )
        qps, result = self._measure(config, sla_latency_s)
        return self._operating_point(
            "deeprecsched-cpu",
            tier,
            sla_latency_s,
            config,
            max(qps, tuning.best_qps),
            result,
            include_gpu_power=False,
        )

    def optimize_gpu(
        self, tier: SLATier = SLATier.MEDIUM, batch_size: Optional[int] = None
    ) -> OperatingPoint:
        """DeepRecSched-GPU: tuned batch size plus tuned offload threshold.

        ``batch_size`` can pin the CPU batch size (e.g. reuse the CPU tuning
        result); by default the CPU tuner runs first, exactly as described in
        Section IV-C.
        """
        if not self._engines.has_accelerator:
            raise ValueError("this scheduler was built without a GPU platform")
        sla_latency_s = self._sla_seconds(tier)
        if batch_size is None:
            cpu_point = self.optimize_cpu(tier)
            batch_size = cpu_point.batch_size
        tuner = OffloadThresholdTuner(
            self._engines,
            self._load_generator,
            num_cores=self._num_cores,
            num_queries=self._num_queries,
            capacity_iterations=self._capacity_iterations,
        )
        tuning: OffloadTuningResult = tuner.tune(batch_size, sla_latency_s)
        config = ServingConfig(
            batch_size=batch_size,
            num_cores=self._num_cores,
            offload_threshold=tuning.best_threshold,
        )
        qps, result = self._measure(config, sla_latency_s)
        return self._operating_point(
            "deeprecsched-gpu",
            tier,
            sla_latency_s,
            config,
            max(qps, tuning.best_qps),
            result,
            include_gpu_power=True,
        )
