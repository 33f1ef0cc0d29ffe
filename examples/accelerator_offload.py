"""Accelerator offload study: which queries belong on the GPU?

Mirrors the study behind Fig. 10 / Fig. 14: with the CPU batch size fixed,
sweep the query-size threshold above which whole queries are offloaded to a
GTX-1080Ti-class accelerator, and report throughput, the share of work the
GPU absorbs, and power efficiency (QPS/Watt).

Run with::

    python examples/accelerator_offload.py [model]
"""

import sys

from repro import LoadGenerator, ServingConfig
from repro.execution import build_engine_pair
from repro.hardware import SystemPowerModel
from repro.runtime import CapacitySearch
from repro.serving import SLATier, sla_target
from repro.utils import format_table


def study(model: str = "dlrm-rmc1", batch_size: int = 512) -> None:
    """Sweep offload thresholds for ``model`` at its medium SLA target."""
    engines = build_engine_pair(model, "skylake", "gtx1080ti")
    generator = LoadGenerator(seed=11)
    power_model = SystemPowerModel(engines.cpu.platform, engines.gpu.platform)
    target = sla_target(model, SLATier.MEDIUM)

    rows = []
    for threshold in (None, 1, 128, 256, 384, 512, 768):
        config = ServingConfig(batch_size=batch_size, offload_threshold=threshold)
        outcome = CapacitySearch.for_server(
            engines, config, target.latency_s, generator, num_queries=300, iterations=4,
        ).run()
        sim = outcome.result
        gpu_fraction = sim.gpu_work_fraction if sim else 0.0
        cpu_util = sim.cpu_utilization if sim else 0.0
        gpu_util = sim.gpu_utilization if sim else 0.0
        include_gpu = threshold is not None
        power = power_model.power(cpu_util, gpu_util if include_gpu else 0.0, outcome.max_qps)
        watts = power.total_watts if include_gpu else power.cpu_watts
        rows.append(
            [
                "cpu-only" if threshold is None else threshold,
                round(outcome.max_qps, 1),
                round(gpu_fraction, 3),
                round(watts, 1),
                round(outcome.max_qps / watts, 2) if watts else 0.0,
            ]
        )

    print(
        format_table(
            ["offload-threshold", "qps", "gpu-work-fraction", "watts", "qps-per-watt"],
            rows,
            title=(
                f"GPU offload threshold sweep ({model}, batch {batch_size}, "
                f"SLA {target.latency_ms:.0f} ms)"
            ),
        )
    )


if __name__ == "__main__":
    study(sys.argv[1] if len(sys.argv) > 1 else "dlrm-rmc1")
