"""Import layering: a process loads only the packages its entry point uses.

Each check runs in a fresh interpreter, because this test session has long
since imported everything.  ``repro`` and ``repro.experiments`` resolve their
re-exports on first access, and the experiment registry imports its driver
modules on its first lookup, so serving, search and service imports stay
clear of the scheduler, ``infra`` and the figure drivers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The ids ``python -m repro.experiments --list`` prints.
EXPERIMENT_IDS = [
    "ablation-arrival",
    "ablation-cache-contention",
    "ablation-size-dist",
    "degraded-fleet",
    "figure-1",
    "figure-10",
    "figure-11",
    "figure-12",
    "figure-13",
    "figure-14",
    "figure-15",
    "figure-3",
    "figure-4",
    "figure-5",
    "figure-6",
    "figure-7",
    "figure-9",
    "table-1",
    "table-2",
]


def _run(code):
    """Run ``code`` in a fresh interpreter; return its stdout parsed as JSON."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _loaded_after(*modules):
    """The ``repro`` modules loaded by importing ``modules``, sorted."""
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'repro')))\n"
    )
    return _run(code)


def _under(loaded, package):
    return [name for name in loaded if name == package or name.startswith(package + ".")]


def test_serving_search_and_service_skip_scheduler_infra_and_drivers():
    loaded = _loaded_after(
        "repro.serving.cluster", "repro.runtime.capacity", "repro.service.ingest"
    )
    assert _under(loaded, "repro.core") == []
    assert _under(loaded, "repro.infra") == []
    assert _under(loaded, "repro.experiments") == [
        "repro.experiments",
        "repro.experiments.result",
    ]


def test_remote_worker_loads_only_the_runtime():
    loaded = _loaded_after("repro.runtime.remote")
    for package in (
        "repro.serving",
        "repro.execution",
        "repro.models",
        "repro.core",
        "repro.infra",
        "repro.experiments",
    ):
        assert _under(loaded, package) == [], package


@pytest.mark.parametrize("package", ["repro", "repro.experiments"])
def test_every_exported_name_resolves(package):
    code = (
        "import importlib, json\n"
        f"module = importlib.import_module({package!r})\n"
        "missing = [n for n in module.__all__ if not hasattr(module, n)]\n"
        "print(json.dumps({'all': list(module.__all__), 'missing': missing}))\n"
    )
    report = _run(code)
    assert report["all"]
    assert report["missing"] == []


def test_registry_alone_lists_every_experiment():
    code = (
        "import json\n"
        "from repro.experiments.registry import available_experiments\n"
        "print(json.dumps(available_experiments()))\n"
    )
    assert _run(code) == EXPERIMENT_IDS
