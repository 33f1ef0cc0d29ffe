"""repro: a reproduction of DeepRecSys (ISCA 2020).

The package provides two artifacts mirroring the paper:

* **DeepRecInfra** (:mod:`repro.infra`, :mod:`repro.models`,
  :mod:`repro.queries`, :mod:`repro.serving`) — an end-to-end at-scale
  recommendation inference infrastructure: eight industry-representative
  models, SLA tail-latency targets, and a production-like query load
  generator feeding a discrete-event serving simulator.
* **DeepRecSched** (:mod:`repro.core`) — a hill-climbing scheduler that
  maximises latency-bounded throughput by tuning the per-request batch size
  and the accelerator query-size offload threshold.

Quickstart::

    from repro import DeepRecSched, SLATier

    sched = DeepRecSched("dlrm-rmc1", cpu_platform="skylake")
    baseline = sched.baseline(SLATier.MEDIUM)
    tuned = sched.optimize_cpu(SLATier.MEDIUM)
    print(tuned.qps / baseline.qps)
"""

from importlib import import_module
from typing import Any, List

__version__ = "1.1.0"

#: Public name -> defining module.  Each module loads on the first access of
#: one of its names (PEP 562), so ``import repro.serving.cluster`` does not pay
#: for the scheduler, the tuners, ``infra`` or the model zoo.
_EXPORTS = {
    "DeepRecSched": "repro.core.scheduler",
    "OperatingPoint": "repro.core.scheduler",
    "build_cpu_engine": "repro.execution.engine",
    "build_engine_pair": "repro.execution.engine",
    "build_gpu_engine": "repro.execution.engine",
    "DeepRecInfra": "repro.infra.deeprecinfra",
    "InfraConfig": "repro.infra.deeprecinfra",
    "available_models": "repro.models.zoo",
    "get_config": "repro.models.zoo",
    "get_model": "repro.models.zoo",
    "LoadGenerator": "repro.queries.generator",
    "ServingConfig": "repro.serving.simulator",
    "ServingSimulator": "repro.serving.simulator",
    "SimulationResult": "repro.serving.simulator",
    "SLATier": "repro.serving.sla",
    "sla_target": "repro.serving.sla",
    "sla_targets": "repro.serving.sla",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
