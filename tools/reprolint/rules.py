"""The concrete reprolint rules (RL001–RL008, RL010).

Every rule encodes an invariant this repository has shipped a bug against —
or is structurally exposed to — and that the test suite can only
spot-check.  Each rule's docstring names the invariant; the catalog with
historical context lives in ``docs/static-analysis.md``.

Rules are pure AST checks (stdlib ``ast`` only): no imports of the code
under analysis, so a broken tree can never take the linter down with it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.reprolint.engine import Finding, Rule

# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/attribute paths they alias.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` -> ``{"dt": "datetime.datetime"}``.
    Only top-level and function-local imports are walked — enough for the
    attribute-chain resolution the rules do.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The dotted path of a Name/Attribute chain, with aliases resolved.

    ``np.random.default_rng`` -> ``"numpy.random.default_rng"`` under
    ``import numpy as np``; returns None for chains rooted in calls,
    subscripts, or other non-name expressions (``self._rng.normal`` etc.).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _call_name(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    return dotted_name(node.func, aliases)


# --------------------------------------------------------------------------- #
# RL001 — builtin hash() is process-salted for strings
# --------------------------------------------------------------------------- #


class BuiltinHashRule(Rule):
    """No builtin ``hash()`` where the value may feed seeding or identity.

    Python salts ``str``/``bytes`` hashing per interpreter process
    (PYTHONHASHSEED), so ``hash()`` of anything string-bearing differs from
    run to run — the PR-1 ``RngFactory.child`` bug, where "seeded" RNG
    streams silently changed across processes.  Cross-process identity must
    go through a process-independent digest (``zlib.crc32``, the capacity
    cache's ``config_hash``); ``hash()`` over provably number-only values
    needs an inline justification instead.
    """

    rule_id = "RL001"
    name = "builtin-hash"
    rationale = (
        "str hashing is PYTHONHASHSEED-salted per process; use zlib.crc32 / "
        "CapacityCache.digest for anything that crosses a process boundary"
    )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    relpath,
                    node,
                    "builtin hash() is process-salted for str/bytes; route "
                    "seeding, cache keys, and cross-process identity through "
                    "zlib.crc32 or a content digest (or justify why the value "
                    "can never contain strings)",
                )


# --------------------------------------------------------------------------- #
# RL002 — every RNG must be explicitly seeded
# --------------------------------------------------------------------------- #

#: numpy.random module-level samplers that draw from hidden global state.
_NP_GLOBAL_SAMPLERS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "exponential", "poisson", "beta", "binomial", "gamma", "standard_normal",
}

#: stdlib ``random`` module-level samplers (the shared global Random()).
_PY_GLOBAL_SAMPLERS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "uniform", "gauss", "normalvariate", "expovariate", "sample",
    "betavariate", "triangular", "vonmisesvariate", "getrandbits",
}

#: Constructors that must receive an explicit seed argument.
_SEEDED_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
    "random.SystemRandom",  # flagged when argless too: inherently unseedable
}


class UnseededRngRule(Rule):
    """No unseeded or global-state RNG outside ``repro.utils.rng``.

    Replay determinism is this repository's core contract: every stochastic
    component takes a seed or a ``numpy.random.Generator`` derived through
    ``RngFactory``.  Argless ``default_rng()`` / ``random.Random()`` and the
    module-level global samplers (``np.random.rand``, ``random.random``…)
    break bit-identical replay and poison shared ``CapacityCache`` entries
    across hosts.  Seeding the globals *with an explicit value*
    (``random.seed(42)``) is allowed — that is how the benchmark conftest
    pins legacy library state.
    """

    rule_id = "RL002"
    name = "unseeded-rng"
    rationale = (
        "unseeded/global RNG breaks bit-identical replay; derive streams "
        "from repro.utils.rng.RngFactory"
    )
    exclude = ("src/repro/utils/rng.py",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        # Only resolved chains rooted in an *actual import* of numpy or the
        # stdlib random module count — a local variable that merely happens
        # to be named ``random`` must not trip the rule.
        imported = set(aliases.values())
        numpy_imported = any(
            target == "numpy" or target.startswith("numpy.") for target in imported
        )
        random_imported = any(
            target == "random" or target.startswith("random.") for target in imported
        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _call_name(node, aliases)
            if called is None:
                continue
            if (
                called in _SEEDED_CONSTRUCTORS
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    relpath,
                    node,
                    f"{called}() without a seed is nondeterministic; pass an "
                    "explicit seed (derive it via RngFactory.child)",
                )
                continue
            head, _, tail = called.rpartition(".")
            if numpy_imported and head == "numpy.random" and tail in _NP_GLOBAL_SAMPLERS:
                yield self.finding(
                    relpath,
                    node,
                    f"numpy.random.{tail} draws from hidden global state; use "
                    "a seeded numpy.random.Generator from RngFactory",
                )
            elif random_imported and head == "random" and tail in _PY_GLOBAL_SAMPLERS:
                yield self.finding(
                    relpath,
                    node,
                    f"random.{tail} draws from the shared global Random; use "
                    "a seeded random.Random(seed) instance",
                )
            elif (
                tail == "seed"
                and ((numpy_imported and head == "numpy.random")
                     or (random_imported and head == "random"))
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    relpath,
                    node,
                    "seed() without a value re-seeds from the OS entropy "
                    "pool; pass the seed explicitly",
                )


# --------------------------------------------------------------------------- #
# RL003 — virtual time rules the simulation core
# --------------------------------------------------------------------------- #

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    """No wall-clock reads inside the event-core/simulator/capacity layers.

    The simulators advance *virtual* time on an event heap; a wall-clock
    read in those layers couples results to host speed and breaks the
    replay-exactness the ``CapacityCache`` and the digital twin's
    cumulative bit-identity depend on.  Ingest, checkpointing, and pool
    timeouts legitimately read real time and are out of scope.
    """

    rule_id = "RL003"
    name = "wall-clock"
    rationale = (
        "simulation layers run on virtual time; wall-clock reads make "
        "results host-speed-dependent and break replay exactness"
    )
    include = (
        "src/repro/serving/",
        "src/repro/execution/",
        "src/repro/infra/",
        "src/repro/core/",
        "src/repro/queries/",
        "src/repro/hardware/",
        "src/repro/faults/",
        "src/repro/runtime/capacity.py",
        "src/repro/service/twin.py",
        "src/repro/service/windows.py",
        "src/repro/service/shadow.py",
    )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _call_name(node, aliases)
            if called in _WALL_CLOCK_CALLS:
                yield self.finding(
                    relpath,
                    node,
                    f"{called}() reads the wall clock inside a virtual-time "
                    "module; simulation state must advance only through the "
                    "event heap",
                )


# --------------------------------------------------------------------------- #
# RL004 — everything submitted to a pool must survive fork+pickle
# --------------------------------------------------------------------------- #


class PickleSafeSubmitRule(Rule):
    """No lambdas or locally-defined functions into ``submit``/``map``.

    ``WorkerPool`` ships tasks to forked workers by pickling; lambdas and
    closures are unpicklable, and the failure only appears when the pool
    actually forks (``jobs > 1``) — the serial path resolves them inline,
    so tests that never fork pass while production sweeps crash.  Task
    functions must be module-level.
    """

    rule_id = "RL004"
    name = "pickle-unsafe-submit"
    rationale = (
        "lambdas/closures don't pickle; the bug hides on serial pools and "
        "fires only when jobs > 1 forks real workers"
    )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        local_callables = self._locally_defined_callables(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("submit", "map") or not node.args:
                continue
            task = node.args[0]
            if isinstance(task, ast.Lambda):
                yield self.finding(
                    relpath,
                    node,
                    f"lambda passed to .{node.func.attr}() cannot be pickled "
                    "to a forked worker; define a module-level function",
                )
            elif isinstance(task, ast.Name) and task.id in local_callables:
                yield self.finding(
                    relpath,
                    node,
                    f"locally-defined function {task.id!r} passed to "
                    f".{node.func.attr}() closes over its defining scope and "
                    "cannot be pickled; move it to module level",
                )

    @staticmethod
    def _locally_defined_callables(tree: ast.Module) -> Set[str]:
        """Names of functions defined *inside* another function (closures)."""
        names: Set[str] = set()

        class _Scoped(ast.NodeVisitor):
            def __init__(self) -> None:
                self.depth = 0

            def _visit_fn(self, node: ast.AST) -> None:
                if self.depth > 0:
                    names.add(node.name)  # type: ignore[attr-defined]
                self.depth += 1
                self.generic_visit(node)
                self.depth -= 1

            visit_FunctionDef = _visit_fn
            visit_AsyncFunctionDef = _visit_fn

            def visit_Assign(self, node: ast.Assign) -> None:
                if self.depth > 0 and isinstance(node.value, ast.Lambda):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                self.generic_visit(node)

        _Scoped().visit(tree)
        return names


# --------------------------------------------------------------------------- #
# RL005 — no order-sensitive accumulation over unordered collections
# --------------------------------------------------------------------------- #


class UnorderedIterationRule(Rule):
    """Iteration over ``set`` / ``.values()`` / ``.keys()`` / ``.items()`` must be sorted.

    ``set`` iteration order depends on insertion history and (for strings)
    the per-process hash seed; dict-view iteration is insertion-ordered,
    which is only deterministic when every insertion path is.  In the
    result-producing ``serving``/``experiments`` layers an unordered loop
    silently reorders accumulations — wrap the iterable in ``sorted(...)``
    or justify why insertion order is pinned.
    """

    rule_id = "RL005"
    name = "unordered-iteration"
    rationale = (
        "set/dict-view order is insertion- and hash-seed-dependent; "
        "result-producing loops must sort or justify"
    )
    # utils/sketch.py is result-producing in the same sense as the
    # serving layer: its compactor levels feed reported percentiles, so
    # an unordered accumulation there would silently reorder summaries.
    include = (
        "src/repro/serving/",
        "src/repro/experiments/",
        "src/repro/utils/sketch.py",
    )

    _VIEW_METHODS = ("values", "keys", "items")

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                reason = self._unordered_reason(candidate)
                if reason is not None:
                    yield self.finding(
                        relpath,
                        candidate,
                        f"iterating {reason} feeds results in collection order; "
                        "wrap it in sorted(...) or justify that insertion "
                        "order is deterministic",
                    )

    def _unordered_reason(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return f"a {node.func.id}()"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._VIEW_METHODS
                and not node.args
            ):
                return f"a dict .{node.func.attr}() view"
        return None


# --------------------------------------------------------------------------- #
# RL006 — registered experiment drivers honour the runner's kwarg contract
# --------------------------------------------------------------------------- #


class RegistryContractRule(Rule):
    """Registered experiment drivers must satisfy the CLI routing contract.

    The runner routes worker/cache settings into drivers by signature
    introspection (``registry.experiment_parameters``), so a driver's
    parameters *are* its CLI contract: every parameter needs a default (the
    runner may call with none), the contract must be explicit (no bare
    ``**kwargs`` hiding it), and ``jobs`` / ``capacity_cache_dir`` travel
    as a pair — a parallel driver without cache routing silently recomputes
    capacities that a shared cache should replay.
    """

    rule_id = "RL006"
    name = "registry-contract"
    rationale = (
        "the runner routes jobs/capacity_cache_dir by signature "
        "introspection; an incomplete signature silently drops settings"
    )
    include = ("src/repro/experiments/",)

    _PAIRED = ("jobs", "capacity_cache_dir")

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_registered(node):
                continue
            yield from self._check_driver(node, relpath)

    @staticmethod
    def _is_registered(node: ast.AST) -> bool:
        for decorator in node.decorator_list:  # type: ignore[attr-defined]
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "register_experiment":
                return True
        return False

    def _check_driver(
        self, node: ast.FunctionDef, relpath: str
    ) -> Iterator[Finding]:
        args = node.args
        if args.kwarg is not None:
            yield self.finding(
                relpath,
                node,
                f"registered driver {node.name!r} takes **{args.kwarg.arg}: "
                "the runner routes settings by explicit parameter name, so "
                "the contract must be spelled out",
            )
        positional = args.posonlyargs + args.args
        missing_defaults = [
            arg.arg for arg in positional[: len(positional) - len(args.defaults)]
        ]
        missing_defaults.extend(
            arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is None
        )
        if missing_defaults:
            yield self.finding(
                relpath,
                node,
                f"registered driver {node.name!r} has parameters without "
                f"defaults {missing_defaults}: the runner must be able to "
                "invoke every experiment with no arguments",
            )
        names = {arg.arg for arg in positional + args.kwonlyargs}
        jobs, cache = self._PAIRED
        if (jobs in names) != (cache in names):
            present, absent = (jobs, cache) if jobs in names else (cache, jobs)
            yield self.finding(
                relpath,
                node,
                f"registered driver {node.name!r} accepts {present!r} but not "
                f"{absent!r}: worker budget and capacity-cache routing travel "
                "together (a parallel search without the shared cache "
                "recomputes replay-exact results)",
            )


# --------------------------------------------------------------------------- #
# RL007 — no float equality outside bit-identity assertion helpers
# --------------------------------------------------------------------------- #


class FloatEqualityRule(Rule):
    """No ``==`` / ``!=`` against float literals in library code.

    Library logic branching on exact float equality is almost always a
    rounding bug waiting to happen.  The *tests* assert exact float
    equality on purpose (bit-identical replay is the contract under test),
    so this rule scopes to ``src/`` only; a deliberate exact sentinel
    comparison gets an inline justification.
    """

    rule_id = "RL007"
    name = "float-equality"
    rationale = (
        "exact float comparison in library logic is rounding-fragile; "
        "bit-identity assertions belong in tests"
    )
    include = ("src/",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (left, right) in zip(
                node.ops, zip(operands, operands[1:])
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(right):
                    yield self.finding(
                        relpath,
                        node,
                        "== / != against a float literal is rounding-fragile "
                        "in library code; compare with a tolerance, restructure "
                        "the condition, or justify the exact sentinel",
                    )
                    break

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)


# --------------------------------------------------------------------------- #
# RL008 — no silent exception swallowing in the runtime/service layers
# --------------------------------------------------------------------------- #


class SwallowedExceptionRule(Rule):
    """``except Exception`` / bare ``except`` must re-raise or handle the error.

    The runtime pool and the long-running service are exactly the layers
    where a swallowed exception turns into a hung future or a silently
    wrong window.  A broad handler is fine when it *does something* with
    the error — re-raises, binds and routes it (``future._reject(err)``),
    or logs it; a handler that references none of that hides failures.
    """

    rule_id = "RL008"
    name = "swallowed-exception"
    rationale = (
        "a swallowed exception in runtime/service turns into a hung future "
        "or a silently wrong window"
    )
    include = ("src/repro/runtime/", "src/repro/service/")

    _BROAD = {"Exception", "BaseException"}

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_error(node, aliases):
                continue
            label = (
                "bare except:"
                if node.type is None
                else f"except {ast.unparse(node.type)}:"
            )
            yield self.finding(
                relpath,
                node,
                f"{label} neither re-raises, uses the bound exception, nor "
                "logs — the failure vanishes; bind the error and route or "
                "record it",
            )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True  # bare except
        candidates: Tuple[ast.expr, ...]
        if isinstance(type_node, ast.Tuple):
            candidates = tuple(type_node.elts)
        else:
            candidates = (type_node,)
        return any(
            isinstance(candidate, ast.Name) and candidate.id in self._BROAD
            for candidate in candidates
        )

    @staticmethod
    def _handles_error(node: ast.ExceptHandler, aliases: Dict[str, str]) -> bool:
        bound = node.name
        for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(child, ast.Raise):
                return True
            if (
                bound is not None
                and isinstance(child, ast.Name)
                and child.id == bound
                and isinstance(child.ctx, ast.Load)
            ):
                return True
            if isinstance(child, ast.Call):
                called = dotted_name(child.func, aliases)
                if called is not None and "log" in called.lower():
                    return True
        return False


# --------------------------------------------------------------------------- #
# RL010 — blocking socket operations must carry an explicit timeout
# --------------------------------------------------------------------------- #

#: Socket methods that block indefinitely on a socket with no timeout set.
_BLOCKING_SOCKET_METHODS = {
    "accept",
    "connect",
    "recv",
    "recv_into",
    "recvfrom",
    "recvfrom_into",
    "sendall",
}


class SocketTimeoutRule(Rule):
    """Blocking socket calls in runtime/service code must set a timeout.

    The distributed executor's whole failure model rests on "no socket
    operation blocks forever": a partitioned peer must surface as a timeout
    the liveness machinery can act on, never as a hung coordinator or a
    worker stuck in ``recv``.  A bare ``accept``/``recv``/``connect`` on a
    default (blocking, timeout-less) socket silently re-introduces the
    hang; the same applies to the twin service's ingest listener.

    Enforced shape: any function that performs a blocking socket method
    must also call ``.settimeout(...)`` with a non-None argument in that
    same function (or at module top level, for module-scoped sockets), so
    the bound is visible next to the operation it protects.
    ``socket.create_connection`` must pass its ``timeout`` argument
    explicitly (and not ``None``).
    """

    rule_id = "RL010"
    name = "socket-timeout"
    rationale = (
        "a bare accept/recv/connect blocks forever on a partitioned peer; "
        "liveness detection needs every socket op bounded by settimeout or "
        "an explicit connect timeout"
    )
    include = ("src/repro/runtime/", "src/repro/service/")

    @staticmethod
    def _is_none(node: Optional[ast.AST]) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    def _sets_timeout(self, scope: ast.AST, aliases: Dict[str, str]) -> bool:
        """Whether ``scope`` contains a non-None settimeout-style call,
        without descending into functions nested inside it."""
        for node in self._scope_walk(scope):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "settimeout"
                and node.args
                and not self._is_none(node.args[0])
            ):
                return True
            called = dotted_name(node.func, aliases)
            if (
                called == "socket.setdefaulttimeout"
                and node.args
                and not self._is_none(node.args[0])
            ):
                return True
        return False

    @staticmethod
    def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without entering nested function/class bodies.

        Every function (however nested) is analysed as its own scope, so
        descending here would double-report nested defs and let an outer
        ``settimeout`` spuriously cover an inner function's socket ops.
        """
        stack: List[ast.AST] = [scope]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
                ):
                    continue
                stack.append(child)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        module_covered = self._sets_timeout(tree, aliases)
        scopes: List[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            covered = module_covered or self._sets_timeout(scope, aliases)
            for node in self._scope_walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                called = dotted_name(node.func, aliases)
                if called == "socket.create_connection":
                    timeout = None
                    if len(node.args) >= 2:
                        timeout = node.args[1]
                    for keyword in node.keywords:
                        if keyword.arg == "timeout":
                            timeout = keyword.value
                    if timeout is None or self._is_none(timeout):
                        yield self.finding(
                            relpath,
                            node,
                            "socket.create_connection without an explicit "
                            "timeout blocks forever on an unreachable host; "
                            "pass timeout=<seconds>",
                        )
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_SOCKET_METHODS
                    and not covered
                ):
                    yield self.finding(
                        relpath,
                        node,
                        f"blocking .{node.func.attr}() with no settimeout in "
                        "scope can hang forever on a partitioned peer; call "
                        ".settimeout(<seconds>) on the socket in this "
                        "function first",
                    )


#: The default rule set, in catalog order.  RL009 (docs citations) is not an
#: AST rule and registers separately in ``tools/reprolint/docs_rule.py``.
AST_RULES = (
    BuiltinHashRule,
    UnseededRngRule,
    WallClockRule,
    PickleSafeSubmitRule,
    UnorderedIterationRule,
    RegistryContractRule,
    FloatEqualityRule,
    SwallowedExceptionRule,
    SocketTimeoutRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every AST rule."""
    return [rule() for rule in AST_RULES]
