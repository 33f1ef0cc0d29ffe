"""Experiment registry: maps paper table/figure identifiers to driver functions.

The driver modules register themselves when imported.  The registry imports
them all on its first lookup or registration, so a caller that only needs
:class:`~repro.experiments.result.ExperimentResult` never loads them.
"""

from __future__ import annotations

import inspect
import threading
from importlib import import_module
from typing import Callable, Dict, KeysView, List

from repro.experiments.result import ExperimentResult

ExperimentFn = Callable[..., ExperimentResult]

#: Modules under :mod:`repro.experiments` whose import registers drivers.
_DRIVER_MODULES = (
    "ablations",
    "degraded_fleet",
    "fig1_roofline",
    "fig3_operators",
    "fig4_gpu_speedup",
    "fig5_query_sizes",
    "fig6_query_breakdown",
    "fig7_subsampling",
    "fig9_batch_sweep",
    "fig10_threshold_sweep",
    "fig11_throughput",
    "fig12_parallelism",
    "fig13_production",
    "fig14_gpu_tradeoff",
    "fig15_cluster_scaling",
    "table1_models",
    "table2_sla",
)

_REGISTRY: Dict[str, ExperimentFn] = {}
# Re-entrant: each driver's own ``register_experiment`` comes back through here
# while the loop below imports it.  Other threads wait until the loop is done.
_LOAD_LOCK = threading.RLock()
_drivers_loaded = False


def _load_drivers() -> None:
    """Import every driver module once, registering its experiments."""
    global _drivers_loaded
    with _LOAD_LOCK:
        if _drivers_loaded:
            return
        _drivers_loaded = True
        for name in _DRIVER_MODULES:
            import_module(f"repro.experiments.{name}")


def register_experiment(experiment_id: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator registering a driver function under ``experiment_id``."""

    def decorator(fn: ExperimentFn) -> ExperimentFn:
        _load_drivers()
        key = experiment_id.lower()
        if key in _REGISTRY:
            raise ValueError(f"experiment {experiment_id!r} is already registered")
        _REGISTRY[key] = fn
        return fn

    return decorator


def get_experiment(experiment_id: str) -> ExperimentFn:
    """Return the driver registered under ``experiment_id``."""
    _load_drivers()
    key = experiment_id.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {available_experiments()}"
        )
    return _REGISTRY[key]


def available_experiments() -> List[str]:
    """All registered experiment identifiers, sorted."""
    _load_drivers()
    return sorted(_REGISTRY)


def experiment_parameters(experiment_id: str) -> KeysView[str]:
    """Parameter names the driver registered under ``experiment_id`` accepts.

    The runner uses this to route worker/cache settings (``jobs``,
    ``capacity_cache_dir``) only into drivers that understand them, and the
    CLI-routing tests use it to enumerate every driver that does.
    """
    return inspect.signature(get_experiment(experiment_id)).parameters.keys()


def experiments_accepting(parameter: str) -> List[str]:
    """Registered experiment ids whose drivers accept ``parameter``, sorted."""
    return [
        experiment_id
        for experiment_id in available_experiments()
        if parameter in experiment_parameters(experiment_id)
    ]
