"""Every program name the benchmark harness reaches still exists.

``perfbench`` imports the program's modules by short name
(``API_MODULES`` in ``perfbench/harness.py``) and calls or patches their
attributes as ``api.<module>.<Name>``.  Deleting or renaming one of those
names would otherwise surface only when the benchmark itself runs.  These
tests read the perfbench sources as text and never import or change them.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
USERS = ("tracing.py", "workloads.py")

#: ``api.<module>.<Name>``, as the workloads and the tracer write it.
REFERENCE = re.compile(r"\bapi\.(\w+)\.(\w+)")
#: ``_patch(api.<module>, "<name>", ...)``: a module attribute the tracer replaces.
MODULE_PATCH = re.compile(r"_patch\(\s*api\.(\w+),\s*\"(\w+)\"")
#: ``<local> = api.<module>.<Class>`` followed by ``_patch(<local>, "<method>", ...)``.
CLASS_ALIAS = re.compile(r"\b(\w+) = api\.(\w+)\.(\w+)")
CLASS_PATCH = re.compile(r"_patch\(\s*(\w+),\s*\"(\w+)\"")


def api_modules():
    """``API_MODULES`` from ``perfbench/harness.py``, read without importing it."""
    tree = ast.parse((PERFBENCH / "harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "API_MODULES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/harness.py defines no API_MODULES")


def references():
    """Sorted ``(file, module, name)`` for every program name perfbench reaches."""
    found = set()
    for filename in USERS:
        text = (PERFBENCH / filename).read_text(encoding="utf-8")
        for pattern in (REFERENCE, MODULE_PATCH):
            for module, name in pattern.findall(text):
                found.add((filename, module, name))
        aliases = {local: (module, name) for local, module, name in CLASS_ALIAS.findall(text)}
        for local, method in CLASS_PATCH.findall(text):
            if local in aliases:
                module, name = aliases[local]
                found.add((filename, module, f"{name}.{method}"))
    return sorted(found)


def resolve(module, dotted):
    value = module
    for part in dotted.split("."):
        value = getattr(value, part)
    return value


def test_api_modules_import():
    modules = api_modules()
    assert modules, "API_MODULES is empty"
    for short, full in sorted(modules.items()):
        assert full.startswith("repro."), (short, full)
        importlib.import_module(full)


def test_references_were_found():
    # Guards the parser: perfbench reaches dozens of names, from both files.
    files = {filename for filename, _, _ in references()}
    assert files == set(USERS)
    assert len(references()) >= 20


@pytest.mark.parametrize(
    "filename, module, name", references(), ids=lambda value: str(value)
)
def test_reference_resolves(filename, module, name):
    modules = api_modules()
    assert module in modules, f"{filename}: api.{module} is not in API_MODULES"
    target = importlib.import_module(modules[module])
    try:
        resolve(target, name)
    except AttributeError:
        pytest.fail(f"{filename}: api.{module}.{name} does not exist in {modules[module]}")
