"""SLA sweep: how the tail-latency target shapes the optimal operating point.

Mirrors the study behind Fig. 9 / Fig. 12(a): for one recommendation model,
sweep the p95 tail-latency target and report the batch size DeepRecSched-CPU
chooses and the latency-bounded throughput it achieves, contrasted with the
static baseline.

Run with::

    python examples/sla_sweep.py [model]
"""

import sys

from repro import LoadGenerator, ServingConfig
from repro.core import BatchSizeTuner, StaticSchedulerPolicy
from repro.execution import build_engine_pair
from repro.runtime import CapacitySearch
from repro.utils import format_table


def sweep(model: str = "dlrm-rmc3") -> None:
    """Sweep latency targets for ``model`` on Skylake."""
    engines = build_engine_pair(model, "skylake", None)
    generator = LoadGenerator(seed=11)
    static_batch = StaticSchedulerPolicy().batch_size(engines.cpu.platform)

    published_ms = engines.cpu.model.config.sla_target_ms
    targets_ms = [published_ms * factor for factor in (0.5, 0.75, 1.0, 1.25, 1.5)]

    rows = []
    for target_ms in targets_ms:
        target_s = target_ms / 1e3
        tuner = BatchSizeTuner(
            engines, generator, num_queries=300, capacity_iterations=4
        )
        tuned = tuner.tune(target_s)
        baseline = CapacitySearch.for_server(
            engines, ServingConfig(batch_size=static_batch), target_s, generator,
            num_queries=300, iterations=4,
        ).run()
        speedup = tuned.best_qps / baseline.max_qps if baseline.max_qps else float("inf")
        rows.append(
            [
                round(target_ms, 1),
                static_batch,
                round(baseline.max_qps, 1),
                tuned.best_batch_size,
                round(tuned.best_qps, 1),
                round(speedup, 2),
            ]
        )

    print(
        format_table(
            [
                "sla-ms",
                "static-batch",
                "static-qps",
                "tuned-batch",
                "tuned-qps",
                "speedup",
            ],
            rows,
            title=f"DeepRecSched-CPU across tail-latency targets ({model}, Skylake)",
        )
    )


if __name__ == "__main__":
    sweep(sys.argv[1] if len(sys.argv) > 1 else "dlrm-rmc3")
