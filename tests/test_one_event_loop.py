"""Structural guard: ``src/`` steps the event heap at exactly one place.

Every run — single server, fleet, streamed, fault-injected, and the digital
twin's resumable streams — pops completions in
:meth:`repro.serving.simulator.EventLoop._advance`.  A second drain loop
would be a second event core that the golden and oracle tests might not
cover, so any new pop call site in ``src/`` (``heappop``, ``heapreplace``
or ``heappushpop``: each removes the heap's smallest entry) fails here
until it is listed (and justified) below, and every pop of the event heap
must sit inside ``EventLoop._advance``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The heapq calls that take an entry off a heap.
POPS = ("heappop", "heapreplace", "heappushpop")

#: Every pop call site in src/: (file, enclosing function, call, popped
#: expression) -> count.
EXPECTED = {
    # The one event loop: a completion that frees a core pops its event,
    # and one that starts the next queued request replaces it.
    ("repro/serving/simulator.py", "EventLoop._advance", "heappop", "events"): 2,
    ("repro/serving/simulator.py", "EventLoop._advance", "heapreplace", "events"): 1,
    # The fault source's retry queue: a side heap, not the event heap.
    ("repro/serving/cluster.py", "FaultInjector.step", "heappop", "self._retries"): 1,
}


def _pop_sites(node, scope, path, sites):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in POPS:
                key = (path, scope, name, ast.unparse(child.args[0]))
                sites[key] = sites.get(key, 0) + 1
        _pop_sites(child, inner, path, sites)


def pop_sites():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _pop_sites(tree, "", path.relative_to(SRC).as_posix(), sites)
    return sites


def test_event_heap_is_popped_at_exactly_one_site():
    assert pop_sites() == EXPECTED
