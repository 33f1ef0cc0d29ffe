"""Structural guard: ``src/`` steps the event heap at exactly one place.

Every run — single server, fleet, streamed, fault-injected, and the digital
twin's resumable streams — pops completions in
:meth:`repro.serving.simulator.EventLoop._advance`.  A second drain loop
would be a second event core that the golden and oracle tests might not
cover, so any new ``heappop`` call site in ``src/`` fails here until it is
listed (and justified) below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every heappop call site in src/: (file, popped expression) -> count.
EXPECTED = {
    # The one event loop's pop of the kernels' shared event heap.
    ("repro/serving/simulator.py", "events"): 1,
    # The fault source's retry queue: a side heap, not the event heap.
    ("repro/serving/cluster.py", "self._retries"): 1,
}


def heappop_sites():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name != "heappop":
                continue
            key = (path.relative_to(SRC).as_posix(), ast.unparse(node.args[0]))
            sites[key] = sites.get(key, 0) + 1
    return sites


def test_event_heap_is_popped_at_exactly_one_site():
    assert heappop_sites() == EXPECTED
