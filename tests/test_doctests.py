"""Tier-1 wiring for the documented runnable examples (doctests).

The runtime, service and query-record modules carry ``>>>`` examples in
their module docstrings — the documentation layer's executable half.  This
file is the one list of documented modules: tier-1 runs it with the rest of
the suite and CI's docs-check step runs it on its own, so the examples
cannot rot — an API change that breaks a documented example fails both.
"""

import doctest

import pytest

import repro.faults.plan
import repro.queries.query
import repro.runtime.capacity
import repro.runtime.pool
import repro.service.checkpoint
import repro.service.ingest
import repro.service.shadow
import repro.service.twin
import repro.service.windows

#: The documented-module selection.  Every module here must carry at least
#: one runnable example.
DOCUMENTED_MODULES = [
    repro.runtime.pool,
    repro.runtime.capacity,
    repro.faults.plan,
    repro.queries.query,
    repro.service.windows,
    repro.service.twin,
    repro.service.shadow,
    repro.service.ingest,
    repro.service.checkpoint,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its runnable examples"
    assert results.failed == 0
