"""Structural guard: the serving, service and infra layers take exact
percentiles through :mod:`repro.utils.stats`.

``repro.utils.stats.percentile_of_sorted`` reads numpy's ``linear``
percentile off an already sorted array by index, bit-identical to
``np.percentile`` at about a hundredth of its per-call cost.  A direct
``np.percentile`` / ``np.quantile`` call in these layers would bring that
cost back into the per-window, per-evaluation and per-node hot paths, so
any such call site in ``src/repro/serving``, ``src/repro/service`` or
``src/repro/infra`` fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GUARDED = ("serving", "service", "infra")
FORBIDDEN = {"percentile", "quantile", "nanpercentile", "nanquantile"}


def forbidden_lines(source):
    """Line numbers in ``source`` that reach numpy's percentile functions."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name in FORBIDDEN for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_serving_and_service_take_no_numpy_percentiles():
    sites = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for package in GUARDED
        for path in sorted((SRC / package).rglob("*.py"))
        for line in forbidden_lines(path.read_text(encoding="utf-8"))
    ]
    assert sites == []


def test_guard_flags_calls_and_imports():
    source = (
        "import numpy as np\n"
        "from numpy import quantile\n"
        "np.percentile([1.0], 50)\n"
        "numpy.nanquantile([1.0], 0.5)\n"
        "percentile_of_sorted(values, 95)\n"
    )
    assert forbidden_lines(source) == [2, 3, 4]
