"""Per-table / per-figure experiment drivers reproducing the paper's evaluation.

The re-exports below load on first access (PEP 562), and the registry imports
the driver modules on its first lookup, so importing
:mod:`repro.experiments.result` alone stays cheap.
"""

from importlib import import_module
from typing import Any, List

#: Public name -> defining module.
_EXPORTS = {
    "available_experiments": "repro.experiments.registry",
    "get_experiment": "repro.experiments.registry",
    "register_experiment": "repro.experiments.registry",
    "ExperimentResult": "repro.experiments.result",
    "SweepOutcome": "repro.experiments.runner",
    "SweepRunner": "repro.experiments.runner",
    "config_hash": "repro.experiments.runner",
    "render_report": "repro.experiments.runner",
    "run_experiment": "repro.experiments.runner",
    "run_experiments": "repro.experiments.runner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
