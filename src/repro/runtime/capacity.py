"""The capacity search: one module for single-server and fleet QPS.

The paper's headline figures all reduce to the same question — the largest
offered load whose p95 latency stays inside the SLA — asked of either one
server or a fleet.  :class:`CapacitySearch` answers both, and this module
holds every piece of it: the bisection's decision tree
(:class:`BisectionMachine`), the warm-start store (:class:`CapacityCache`,
with its cross-host sync helpers) and the search itself.

* ``CapacitySearch.for_server(...)`` and ``CapacitySearch.for_fleet(...)``
  describe the search; :meth:`CapacitySearch.run` executes it;
* execution is **serial per search**: the bisection's decision tree lives
  in a :class:`BisectionMachine`, driven one rate at a time by the same
  function wherever it runs;
* :func:`run_capacity_searches` runs *many* searches: with ``jobs > 1``
  each unfinished search is one task on the invocation's shared
  :class:`~repro.runtime.pool.WorkerPool` (never more in flight than the
  host has cores), and the parent keeps every cache decision.  A task runs
  the exact serial search, so the results — evaluation counts included —
  are those of ``jobs=1``;
* ``warm_start_cache`` consults a :class:`CapacityCache` under a
  schema-versioned signature covering the engines, fleet shape, SLA,
  workload and trace seed, and search fidelity.  Because the signature
  pins everything the decision tree depends on, a cache hit *is* the value
  the cold serial search would compute: the search verifies it with a single
  evaluation at the cached rate and returns — bit-identical to the cold run,
  an order of magnitude cheaper.  Bump :data:`CAPACITY_SCHEMA_VERSION`
  whenever the search semantics change; old entries then miss by
  construction instead of replaying stale answers.

Every consumer — figure drivers, tuners, sweeps — builds a
:class:`CapacitySearch`, so they all share one search implementation and
one pool.

A complete (reduced-fidelity) single-server search, serial and cold:

>>> from repro.execution.engine import EnginePair, build_cpu_engine
>>> from repro.queries.generator import LoadGenerator
>>> from repro.serving.simulator import ServingConfig
>>> engines = EnginePair(cpu=build_cpu_engine("ncf", "broadwell"), gpu=None)
>>> search = CapacitySearch.for_server(
...     engines, ServingConfig(batch_size=128, num_cores=4),
...     sla_latency_s=0.05, load_generator=LoadGenerator(seed=7),
...     num_queries=120, iterations=4, max_queries=400)
>>> result = search.run()
>>> result.max_qps > 0 and result.result.acceptable(0.05)
True
>>> search.signature()["schema"] == CAPACITY_SCHEMA_VERSION
True

Re-running the identical search against a shared cache replays the answer
(one verifying evaluation from disk, zero from the in-process memo):

>>> import tempfile
>>> from repro.runtime.capacity import CapacityCache
>>> with tempfile.TemporaryDirectory() as cache_dir:
...     cache = CapacityCache(cache_dir)
...     cold = search.run(warm_start_cache=cache)
...     memo = search.run(warm_start_cache=cache)
...     (memo.max_qps == cold.max_qps == result.max_qps, memo.evaluations)
(True, 0)
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.execution.engine import EnginePair
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.queries.generator import LoadGenerator
from repro.runtime.pool import (
    Future,
    TaskContext,
    WorkerPool,
    as_completed,
    pool_scope,
)
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulator,
    LoadBalancer,
    estimate_fleet_upper_bound_qps,
    warm_latency_tables,
)
from repro.serving.simulator import (
    CertainRejection,
    ServingConfig,
    ServingSimulator,
    SimulationResult,
    pause_gc,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one capacity search.

    ``result`` is the simulation outcome at the best sustainable rate — a
    :class:`SimulationResult` for single-server searches, or a
    :class:`~repro.serving.cluster.ClusterSimulationResult` for fleet
    searches (both expose the ``acceptable`` criterion the search uses).

    ``evaluations`` counts the simulator evaluations performed on behalf of
    this search: the rates the decision tree consumed (plus a rejected
    replay's verification, and the full re-run of an unbracketed exit's
    rejected rate), or 1 for a warm-start replay and 0 for an in-memory
    memo hit.  Every search runs serially wherever it runs, so the count
    does not depend on ``jobs``.  It is observability metadata — two
    results that differ only in ``evaluations`` describe the same
    capacity.
    """

    max_qps: float
    sla_latency_s: float
    result: Optional[SimulationResult]
    evaluations: int = 0

    @property
    def feasible(self) -> bool:
        """False when even a near-zero load violates the SLA."""
        return self.result is not None


def measurement_queries(
    rate_qps: float,
    sla_latency_s: float,
    min_queries: int,
    max_queries: int,
    sla_window_factor: float = 5.0,
) -> int:
    """Number of queries needed for a trustworthy tail-latency measurement.

    The arrival window must span several SLA periods, otherwise an overloaded
    configuration's queue does not have time to grow past the target and the
    run looks (wrongly) healthy.  The count is clamped so that the very high
    QPS operating points of embedding-dominated models stay affordable to
    simulate.
    """
    check_positive("rate_qps", rate_qps)
    needed = int(rate_qps * sla_window_factor * sla_latency_s)
    return max(min_queries, min(max_queries, needed))


class BisectionMachine:
    """The capacity bisection's decision tree as an explicit state machine.

    The serial search walks one path through a binary decision tree: every
    evaluation's accept/reject verdict picks the next rate.  This class
    factors that tree out of the execution loop — :meth:`next_rate` is the
    rate the search needs now, :meth:`advance` consumes its verdict.

    The tree: raise the initial ``upper_qps`` by ×1.6 (at most three times)
    until it misses the SLA, probe ``upper / 64`` (and a near-zero trickle
    rate if even that misses), then bisect ``iterations`` times, reporting
    the last accepted rate.  The machine consumes exactly the rate sequence
    of a plain serial bisection loop (property tested against one).
    """

    __slots__ = (
        "phase",
        "upper",
        "lower",
        "raise_attempts",
        "best_rate",
        "remaining",
        "iterations",
        "trickle_rate",
        "max_qps",
        "result_rate",
    )

    def __init__(self, upper_qps: float, iterations: int) -> None:
        check_positive("upper_qps", upper_qps)
        check_positive("iterations", iterations)
        self.phase = "raise"
        self.upper = upper_qps
        self.lower = 0.0
        self.raise_attempts = 0
        self.best_rate: Optional[float] = None
        self.remaining = 0
        self.iterations = iterations
        self.trickle_rate = 0.0
        self.max_qps: Optional[float] = None
        self.result_rate: Optional[float] = None

    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """True once the search has concluded (``max_qps`` is set)."""
        return self.phase == "done"

    def next_rate(self) -> Optional[float]:
        """The offered load whose verdict the decision tree needs next."""
        phase = self.phase
        if phase in ("raise", "unbracketed"):
            return self.upper
        if phase == "lower":
            return self.lower
        if phase == "trickle":
            return self.trickle_rate
        if phase == "bisect":
            return 0.5 * (self.lower + self.upper)
        return None  # done

    def advance(self, acceptable: bool) -> None:
        """Consume the verdict of :meth:`next_rate`'s evaluation."""
        phase = self.phase
        if phase == "raise":
            if acceptable:
                self.raise_attempts += 1
                self.upper *= 1.6
                if self.raise_attempts >= 3:
                    self.phase = "unbracketed"
            else:
                self.lower = self.upper / 64.0
                self.phase = "lower"
        elif phase == "unbracketed":
            # Whatever this measurement says, the serial search reports the
            # raised upper (its result is measured at that same rate).
            self._finish(self.upper, self.upper)
        elif phase == "lower":
            if acceptable:
                self.best_rate = self.lower
                self._enter_bisect()
            else:
                self.trickle_rate = max(self.lower / 16.0, 1e-3)
                self.phase = "trickle"
        elif phase == "trickle":
            if acceptable:
                self.lower = self.trickle_rate
                self.best_rate = self.trickle_rate
                self._enter_bisect()
            else:
                self._finish(0.0, None)
        elif phase == "bisect":
            middle = 0.5 * (self.lower + self.upper)
            if acceptable:
                self.lower = middle
                self.best_rate = middle
            else:
                self.upper = middle
            self.remaining -= 1
            if self.remaining <= 0:
                self._finish(self.best_rate, self.best_rate)
        else:
            raise RuntimeError("cannot advance a finished bisection")

    # ------------------------------------------------------------------ #

    def _enter_bisect(self) -> None:
        self.remaining = self.iterations
        self.phase = "bisect"

    def _finish(self, max_qps: Optional[float], result_rate: Optional[float]) -> None:
        self.max_qps = max_qps
        self.result_rate = result_rate
        self.phase = "done"


def _stored_capacity(raw: Any) -> float:
    """``raw`` as a stored capacity: a finite positive real that is not a bool.

    The one check every value read back from a cache file or synced from
    another host passes before it can be replayed; anything else raises
    ``ValueError`` and is counted as corrupt (or rejected) by the caller.
    """
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise ValueError(f"a capacity must be a real number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"a capacity must be finite and positive, got {value!r}")
    return value


class CapacityCache:
    """Warm-start store for capacity searches: an on-disk tier plus a memo.

    * **Replay-exact tier** (:meth:`load` / :meth:`store`): maps a canonical
      search signature to the ``max_qps`` a previous search found.  Because
      the signature pins every decision input, a hit replays the cold
      search's answer after one verifying evaluation — bit-identical.
    * **In-process memo** (:meth:`memo_load` / :meth:`memo_store`): full
      :class:`CapacityResult` objects keyed by digest, so one
      :class:`CapacityCache` instance shared across a sweep serves repeated
      identical searches without re-verification — the stored result *is*
      the earlier run's, trivially bit-identical.

    Entries are one JSON file per signature, named by its SHA-256 digest —
    shareable and prunable with ordinary file tools, like the sweep runner's
    result cache.  ``stats`` counts hits and misses per tier so sweep
    reports can surface cache behaviour.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self._dir = Path(cache_dir)
        self._memo: Dict[str, "CapacityResult"] = {}
        self.stats: Dict[str, int] = {
            "exact_hits": 0,
            "exact_misses": 0,
            "memo_hits": 0,
            "stores": 0,
            "corrupt_entries": 0,
        }

    @property
    def cache_dir(self) -> Path:
        """Directory holding the warm-start entries."""
        return self._dir

    @staticmethod
    def digest(signature: Dict[str, Any]) -> str:
        """Stable hex digest of a canonical (JSON-serialisable) signature."""
        payload = json.dumps(signature, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, signature: Dict[str, Any]) -> Path:
        return self._dir / f"capacity-{self.digest(signature)}.json"

    def load(self, signature: Dict[str, Any], count: bool = True) -> Optional[float]:
        """Return the cached max QPS for ``signature``, or None.

        ``count=False`` leaves the exact-tier counters untouched — used by
        lookups that are not a search's warm start (merging entries synced
        from another host checks for a local entry first).

        A present-but-unreadable entry (truncated write, garbage JSON or
        JSON nested too deeply to decode, a foreign file shape, a capacity
        that is not a finite positive real)
        is a plain miss — the search falls back to the cold path — but is
        additionally tallied in ``stats["corrupt_entries"]`` so cache rot is
        visible rather than silently masquerading as cold misses.
        """
        path = self._path(signature)
        max_qps: Optional[float] = None
        try:
            text = path.read_text()
        except OSError:
            pass  # no entry: an ordinary miss
        else:
            try:
                max_qps = _stored_capacity(json.loads(text)["max_qps"])
            # JSONDecodeError is a ValueError; RecursionError is JSON nested
            # too deeply to decode.
            except (KeyError, TypeError, ValueError, RecursionError):
                self.stats["corrupt_entries"] += 1
        if count:
            self.stats["exact_misses" if max_qps is None else "exact_hits"] += 1
        return max_qps

    def store(self, signature: Dict[str, Any], max_qps: float) -> None:
        """Record ``max_qps`` for ``signature`` (atomic write-then-rename)."""
        self._dir.mkdir(parents=True, exist_ok=True)
        path = self._path(signature)
        entry = {"signature": signature, "max_qps": max_qps}
        scratch = path.with_suffix(f".tmp-{os.getpid()}")
        scratch.write_text(json.dumps(entry, sort_keys=True))
        scratch.replace(path)
        self.stats["stores"] += 1
        for observer in list(_STORE_OBSERVERS):
            observer(signature, max_qps)

    # ------------------------------------------------------------------ #

    def memo_load(self, key: str) -> Optional["CapacityResult"]:
        """This instance's previously returned result under ``key`` (a
        :meth:`digest`, as a search's memo digest is)."""
        result = self._memo.get(key)
        if result is not None:
            self.stats["memo_hits"] += 1
        return result

    def memo_store(self, key: str, result: "CapacityResult") -> None:
        """Remember a finished search's full result for this process."""
        self._memo[key] = result


# --------------------------------------------------------------------------- #
# Cross-host cache syncing
# --------------------------------------------------------------------------- #

#: Callbacks notified on every :meth:`CapacityCache.store` in this process.
#: The distributed executor's worker shim installs one around each task so
#: the warm-start entries a remote search produced can piggy-back home to
#: the coordinator together with the task's result.
_STORE_OBSERVERS: List[Callable[[Dict[str, Any], float], None]] = []


@contextmanager
def observe_cache_stores() -> Iterator[List[Tuple[Dict[str, Any], float]]]:
    """Collect every ``CapacityCache.store`` performed while active.

    Yields a list that accumulates ``(signature, max_qps)`` pairs in store
    order, across *all* cache instances in this process.  Observers nest:
    each collector sees the stores of everything inside its own block.
    """
    recorded: List[Tuple[Dict[str, Any], float]] = []

    def _record(signature: Dict[str, Any], max_qps: float) -> None:
        recorded.append((signature, max_qps))

    _STORE_OBSERVERS.append(_record)
    try:
        yield recorded
    finally:
        _STORE_OBSERVERS.remove(_record)


def apply_synced_entries(
    cache: CapacityCache, entries: Iterable[Any]
) -> Dict[str, int]:
    """Merge warm-start entries recorded on another host into ``cache``.

    Remote workers ship back the ``(signature, max_qps)`` pairs their tasks
    stored (collected via :func:`observe_cache_stores`); the coordinator
    folds them into its own cache here.  The wire is not trusted to deliver
    well-formed pairs, so every entry is validated defensively:

    * **rejected** — wrong shape, a non-dict or non-JSON-serialisable
      signature, or a capacity that is not a finite positive real (a bool
      included);
    * **conflicts** — an entry already present locally with a *different*
      value: the existing (first-writer) value is kept, so a replayed sweep
      never sees its warm-start answers flap under late arrivals;
    * **applied** — everything else is stored through the cache's ordinary
      atomic write-then-rename path.

    Returns the per-disposition counts.
    """
    counts = {"applied": 0, "conflicts": 0, "rejected": 0}
    for entry in entries:
        try:
            signature, raw_qps = entry
            max_qps = _stored_capacity(raw_qps)
            if not isinstance(signature, dict):
                raise TypeError("signature must be a dict")
            CapacityCache.digest(signature)  # must be JSON-serialisable
            existing = cache.load(signature, count=False)
        except (TypeError, ValueError):
            counts["rejected"] += 1
            continue
        if existing is not None:
            if existing != max_qps:
                counts["conflicts"] += 1
            continue
        cache.store(signature, max_qps)
        counts["applied"] += 1
    return counts


# --------------------------------------------------------------------------- #
# Search signatures
# --------------------------------------------------------------------------- #


#: Version of the warm-start signature schema.  Folded into every signature,
#: so entries written under a different schema can never be replayed; bump it
#: whenever the search semantics or the signature's coverage change.
#: (v3: balancing policy and seed are normalised out of single-server fleet
#: signatures — with one server every policy is pass-through and the run is
#: event-identical, so policy variants of the same search now share entries.)
CAPACITY_SCHEMA_VERSION = 3


def _component_signature(component: Any) -> Dict[str, Any]:
    """Type name plus instance parameters of a workload component.

    Two distributions (or arrival processes) of the same class but different
    parameters must not collide in the warm-start cache — an entry from a
    different workload would replay a wrong capacity.  Raises for
    components whose state is not plain data; the caller treats that as
    "cannot sign, skip caching".
    """
    return {
        "type": type(component).__name__,
        "params": dict(sorted(vars(component).items())),
    }


def _platform_signature(platform: Any) -> Any:
    """Full parameters of a hardware platform, not just its name.

    The ablation drivers build modified platforms that *keep* the stock name
    (e.g. Broadwell with the LLC contention slope zeroed); signing only the
    name would collide their searches with the stock platform's and replay
    the wrong capacity.  Platforms are frozen dataclasses of plain numbers,
    so their full field dict is canonical; anything else falls back to the
    name and relies on the serialisability probe to reject leftovers.
    """
    if dataclasses.is_dataclass(platform):
        return dataclasses.asdict(platform)
    return platform.name


def _server_signature(server: ClusterServer) -> Dict[str, Any]:
    """Canonical description of one server: engines plus scheduling config."""
    return {
        "model": server.engines.cpu.model.name,
        "cpu": _platform_signature(server.engines.cpu.platform),
        "gpu": (
            _platform_signature(server.engines.gpu.platform)
            if server.engines.gpu is not None
            else None
        ),
        "batch_size": server.config.batch_size,
        "num_cores": server.config.num_cores,
        # Scaled nodes with different speed factors are different fleets; a
        # collision would replay the wrong search's capacity.
        "speed_factor": getattr(server.engines.cpu, "speed_factor", 1.0),
        "offload_threshold": server.config.offload_threshold,
        "warmup_fraction": server.config.warmup_fraction,
    }


# --------------------------------------------------------------------------- #
# Evaluation: the serial path in the parent, and pool workers
# --------------------------------------------------------------------------- #


def _build_simulator(search: "CapacitySearch") -> Any:
    """The simulator that evaluates ``search``'s candidate rates.

    The one place a search's inputs become a simulator: the search's
    constructor calls it once (failing fast on an invalid fleet, in the
    parent) for the serial and replay paths, and every pool worker calls it
    through the search's :class:`TaskContext` (:func:`_build_evaluator`) to
    build its own deterministic copy.
    """
    if search._kind == "fleet":
        assert search._balancer is not None  # for_fleet requires one
        return ClusterSimulator(
            search._fleet(),
            balancer=search._balancer,
            warmup_fraction=search._warmup_fraction,
            balancer_seed=search._balancer_seed,
            fault_plan=search._fault_plan,
            retry_policy=search._retry_policy,
        )
    assert search._engines is not None and search._config is not None
    return ServingSimulator(search._engines, search._config)


def _build_evaluator(search: "CapacitySearch") -> "CapacitySearch":
    """Pool-worker side of a search's context: a search unpickled without
    its parent's simulator (see ``CapacitySearch.__getstate__``) gets its
    own, once per worker."""
    search._simulator = _build_simulator(search)
    return search


def _evaluate_rate(search: "CapacitySearch", rate_qps: float, reject: bool = True) -> Any:
    """Run the search's simulator at one offered load and return its result.

    By default the SLA target arms the simulators' exact early-rejection
    exit: a run whose p95 provably cannot meet the target stops immediately
    with a :class:`~repro.serving.simulator.CertainRejection`
    (verdict-identical to the full run), while any run that meets the
    target always completes and returns the ordinary bit-identical result.
    Searches only ever report results of accepted evaluations, so early
    exits shorten discarded probe runs without changing a single reported
    number.  ``reject=False`` forces a run to completion — used when a
    search must *report* the measurement at a rejected rate (the
    unbracketed exit), where the early-exit stub has no statistics.

    The offered stream is one ``generate`` call, whose trace carries rows
    the simulator reads as they are, so an evaluation builds no ``Query``.
    """
    generator = search._load_generator.with_rate(rate_qps)
    sla = search._sla_latency_s
    count = measurement_queries(rate_qps, sla, search._num_queries, search._max_queries)
    # Row tuples and the loop's in-flight state are allocation-heavy and
    # cycle-free, so the collector has nothing to find during a run.
    with pause_gc():
        return search._simulator.run(
            generator.generate(count), reject_above_sla_s=sla if reject else None
        )


# --------------------------------------------------------------------------- #
# The unified search
# --------------------------------------------------------------------------- #


class CapacitySearch:
    """One latency-bounded capacity search over a server or a fleet.

    Build with :meth:`for_server` or :meth:`for_fleet`, then :meth:`run`.
    The pooled path (``jobs > 1``) runs the same serial search in a worker,
    and the warm-start replay is decision-identical to it — callers choose
    them purely on wall-clock grounds.
    """

    def __init__(
        self,
        *,
        kind: str,
        sla_latency_s: float,
        load_generator: LoadGenerator,
        num_queries: int,
        iterations: int,
        headroom: float,
        max_queries: int,
        engines: Optional[EnginePair] = None,
        config: Optional[ServingConfig] = None,
        servers: Optional[Sequence[ClusterServer]] = None,
        balancer: Union[str, LoadBalancer, None] = None,
        warmup_fraction: Optional[float] = None,
        balancer_seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        check_positive("sla_latency_s", sla_latency_s)
        check_positive("num_queries", num_queries)
        check_positive("iterations", iterations)
        if fault_plan is not None and fault_plan.is_empty():
            fault_plan = None  # the "no faults" sentinel, like the simulator
        if fault_plan is not None and kind != "fleet":
            raise ValueError("fault injection is only supported for fleet searches")
        self._kind = kind
        self._sla_latency_s = sla_latency_s
        self._load_generator = load_generator
        self._num_queries = num_queries
        self._iterations = iterations
        self._headroom = headroom
        self._max_queries = max_queries
        self._engines = engines
        self._config = config
        self._servers = list(servers) if servers is not None else None
        self._balancer = balancer
        self._warmup_fraction = warmup_fraction
        self._balancer_seed = balancer_seed
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        # Fail fast on an invalid fleet/config — in the parent, not mid-run
        # inside a worker.  The validated simulator is kept and reused as
        # the serial/replay evaluator, so a serial search builds it once.
        self._simulator = _build_simulator(self)

    def __getstate__(self) -> Dict[str, Any]:
        # Pool workers build their own simulator (_build_evaluator), so the
        # pickled search carries only the inputs.
        state = dict(self.__dict__)
        del state["_simulator"]
        return state

    # ------------------------------------------------------------------ #

    @classmethod
    def for_server(
        cls,
        engines: EnginePair,
        config: ServingConfig,
        sla_latency_s: float,
        load_generator: LoadGenerator,
        *,
        num_queries: int = 800,
        iterations: int = 7,
        headroom: float = 1.3,
        max_queries: int = 8000,
    ) -> "CapacitySearch":
        """A single-server search."""
        return cls(
            kind="server",
            engines=engines,
            config=config,
            sla_latency_s=sla_latency_s,
            load_generator=load_generator,
            num_queries=num_queries,
            iterations=iterations,
            headroom=headroom,
            max_queries=max_queries,
        )

    @classmethod
    def for_fleet(
        cls,
        servers: Sequence[ClusterServer],
        balancer: Union[str, LoadBalancer],
        sla_latency_s: float,
        load_generator: LoadGenerator,
        *,
        num_queries: int = 600,
        iterations: int = 6,
        headroom: float = 1.3,
        max_queries: int = 8000,
        warmup_fraction: Optional[float] = None,
        balancer_seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "CapacitySearch":
        """A fleet search.

        The offered stream is generated once per candidate rate and routed
        by ``balancer``, so the measured capacity includes balancing losses
        (a skewed policy saturates one server before the fleet is nominally
        full).  With ``jobs > 1`` servers and balancer must be picklable.
        ``fault_plan`` / ``retry_policy`` make every candidate-rate
        evaluation run fault-injected, so the search measures capacity
        *under* the plan's crashes and stragglers.
        """
        return cls(
            kind="fleet",
            servers=servers,
            balancer=balancer,
            sla_latency_s=sla_latency_s,
            load_generator=load_generator,
            num_queries=num_queries,
            iterations=iterations,
            headroom=headroom,
            max_queries=max_queries,
            warmup_fraction=warmup_fraction,
            balancer_seed=balancer_seed,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )

    # ------------------------------------------------------------------ #

    @property
    def sla_latency_s(self) -> float:
        """The p95 target the search holds rates to."""
        return self._sla_latency_s

    def _policy_name(self) -> Optional[str]:
        if self._balancer is None:
            return None
        if isinstance(self._balancer, str):
            return self._balancer
        return self._balancer.name or type(self._balancer).__name__

    def _fleet(self) -> List[ClusterServer]:
        """The search's servers as a fleet (a single server is a fleet of one)."""
        if self._servers is not None:
            return self._servers
        assert self._engines is not None and self._config is not None
        return [ClusterServer(engines=self._engines, config=self._config)]

    def upper_bound_qps(self) -> float:
        """Optimistic analytic throughput bound bracketing the bisection."""
        return estimate_fleet_upper_bound_qps(self._fleet(), self._load_generator)

    def signature(self) -> Optional[Dict[str, Any]]:
        """Schema-versioned canonical description of this search, or None.

        Covers everything the bisection's decision tree depends on: the
        fleet shape (engines, speed factors, scheduling configs), balancing
        policy and seed, SLA, workload components and trace seed, and the
        search fidelity knobs.  Returns None when any component cannot be
        described canonically (e.g. a balancer instance on a multi-server
        fleet, or a size distribution with unserialisable state), in which
        case warm-start caching and batch dedupe are silently skipped.
        Computed once per search (the inputs are frozen at construction).
        """
        return self._signature

    @functools.cached_property
    def _signature(self) -> Optional[Dict[str, Any]]:
        fleet = self._fleet()
        # With a single server every balancing policy degenerates to
        # pass-through and the run is event-identical (the balancer can only
        # ever pick server 0), so policy and balancer seed are normalised
        # out: policy variants of the same one-server search share a cache
        # entry instead of recomputing identical answers.
        single = len(fleet) == 1
        if not single and isinstance(self._balancer, LoadBalancer):
            # An instance's decisions depend on state its name does not
            # carry (e.g. a seeded random stream), so it cannot be signed.
            return None
        try:
            signature: Dict[str, Any] = {
                "kind": "capacity-search",
                "schema": CAPACITY_SCHEMA_VERSION,
                "search": self._kind,
                "servers": [_server_signature(s) for s in fleet],
                "policy": None if single else self._balancer,
                "sla_latency_s": self._sla_latency_s,
                "arrival": _component_signature(self._load_generator.arrival),
                "sizes": _component_signature(self._load_generator.sizes),
                "seed": self._load_generator.seed,
                "num_queries": self._num_queries,
                "iterations": self._iterations,
                "headroom": self._headroom,
                "max_queries": self._max_queries,
                "warmup_fraction": self._warmup_fraction,
                "balancer_seed": 0 if single else self._balancer_seed,
            }
            # Folded in only when a plan is present: fault-free signatures
            # (and their digests) are byte-identical to pre-fault builds, so
            # existing cache entries stay valid without a schema bump.
            if self._fault_plan is not None:
                signature["fault"] = {
                    "plan": self._fault_plan.to_dict(),
                    "retry": (self._retry_policy or RetryPolicy()).to_dict(),
                }
            json.dumps(signature, sort_keys=True)  # probe serialisability
        except (TypeError, ValueError, AttributeError):
            return None
        return signature

    @functools.cached_property
    def _digest(self) -> Optional[str]:
        """The signature's :meth:`CapacityCache.digest` (None when unsigned)."""
        signature = self._signature
        return None if signature is None else CapacityCache.digest(signature)

    @functools.cached_property
    def _memo_digest(self) -> Optional[str]:
        """The in-process memo key: the signature *plus* presentation-only
        fields, digested.

        Single-server fleets normalise the balancing policy out of the
        shared signature (any policy computes the identical run), which is
        safe for the replay tier — its verifying evaluation runs under the
        search's own policy and rebuilds the correctly-labelled result.  The
        memo tier returns a stored result object verbatim, so it must not
        cross policies: a least-outstanding result replayed for a
        power-of-two search would carry the wrong policy label even though
        every measured number matches.
        """
        signature = self._signature
        if signature is None:
            return None
        return CapacityCache.digest(
            {
                "signature": signature,
                "memo_policy": self._policy_name(),
                "memo_balancer_seed": self._balancer_seed,
            }
        )

    # ------------------------------------------------------------------ #

    def _context(self) -> TaskContext:
        """Pool-task context: a worker unpickles the search and builds its
        own (deterministic) simulator; a pool that runs the task locally
        reuses this search and its validated simulator."""
        return TaskContext(_build_evaluator, self, value=self)

    def default_upper_qps(self) -> float:
        """The cold search's initial bracket top (headroom × analytic bound)."""
        return self._headroom * self.upper_bound_qps()

    def run(
        self,
        jobs: int = 1,
        warm_start_cache: Union[CapacityCache, str, Path, None] = None,
        pool: Optional[WorkerPool] = None,
    ) -> CapacityResult:
        """Execute the search and return the best sustainable rate.

        The search always runs serially: inline, or with ``jobs > 1`` as one
        task on a worker pool — an explicitly passed ``pool``, else the
        invocation's shared pool (:func:`~repro.runtime.pool.shared_pool`),
        else a private pool closed before returning.  A lone search is
        therefore no faster with more ``jobs``; a batch of searches is (see
        :func:`run_capacity_searches`).  The returned result, evaluation
        count included, is the same at any ``jobs``.

        ``warm_start_cache`` (a :class:`CapacityCache` or a directory path)
        replays a previously recorded identical search after one verifying
        evaluation at the cached rate, and records this search's outcome for
        future runs.
        """
        return run_capacity_searches(
            [self], jobs=jobs, warm_start_cache=warm_start_cache, pool=pool
        )[0]


# --------------------------------------------------------------------------- #
# Execution: one serial search per task
# --------------------------------------------------------------------------- #


def _host_cores() -> int:
    """Physical parallelism available to this process (monkeypatchable)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _parallel_budget(jobs: int, pool: WorkerPool) -> int:
    """Searches worth running at once.

    Tasks beyond the host's cores cannot run anywhere — they only add fork
    and IPC overhead — so the budget is clamped by the physical core count
    as well as the pool width.  On a one-core host every batch therefore
    runs inline, no matter how large a ``jobs`` budget the caller requested.

    Pools that span hosts (``pool.spans_hosts``, e.g. the remote worker
    fleet) are exempt from the core clamp: their workers run on *other*
    machines, so the local core count says nothing about how many
    searches can genuinely proceed at once.
    """
    width = min(jobs, pool.max_workers)
    if not getattr(pool, "spans_hosts", False):
        width = min(width, _host_cores())
    return max(1, width)


def _search(
    search: CapacitySearch, replay_rate: Optional[float]
) -> Tuple[CapacityResult, bool]:
    """The exact serial search: inline in the parent, or one pool task.

    Touches no cache.  A ``replay_rate`` (a warm-start entry's, or a batch
    leader's answer) is verified with one evaluation; an answer the
    simulator no longer sustains is stale (e.g. a foreign file dropped into
    the cache directory), and the search then bisects cold, from nothing,
    exactly as a solo cold search would.  Returns the result and whether a
    bisection produced it — only a bisection's answer is new to the disk
    tier.
    """
    sla = search.sla_latency_s
    evaluations = 0
    if replay_rate is not None:
        outcome = _evaluate_rate(search, replay_rate)
        evaluations += 1
        if outcome.acceptable(sla):
            return CapacityResult(replay_rate, sla, outcome, evaluations), False
    machine = BisectionMachine(search.default_upper_qps(), search._iterations)
    outcomes: Dict[float, Any] = {}
    while not machine.done:
        rate = cast(float, machine.next_rate())
        if rate not in outcomes:
            outcomes[rate] = _evaluate_rate(search, rate)
            evaluations += 1
        machine.advance(outcomes[rate].acceptable(sla))
    result_rate = machine.result_rate
    if result_rate is None:
        return CapacityResult(0.0, sla, None, evaluations), True
    outcome = outcomes[result_rate]
    if isinstance(outcome, CertainRejection):
        # Accepted evaluations always run to completion; only the
        # unbracketed exit reports a possibly *rejected* rate, whose
        # early-exit stub has no statistics.  Re-run that one evaluation
        # without the exit (a deterministic function of the rate).
        outcome = _evaluate_rate(search, result_rate, reject=False)
        evaluations += 1
    return CapacityResult(cast(float, machine.max_qps), sla, outcome, evaluations), True


def run_capacity_searches(
    searches: Sequence[CapacitySearch],
    jobs: int = 1,
    warm_start_cache: Union[CapacityCache, str, Path, None] = None,
    pool: Optional[WorkerPool] = None,
) -> List[CapacityResult]:
    """Run independent capacity searches, over one worker pool if ``jobs > 1``.

    The batch form of :meth:`CapacitySearch.run`.  The caller's process
    makes every cache decision: before running, a memo hit returns the
    stored result and a disk hit turns its search into a one-evaluation
    replay; afterwards a bisection's answer is stored to disk and every
    result to the memo.  Each unfinished search then runs serially
    (:func:`_search`) — inline at ``jobs=1``, else as one pool task per
    search with at most :func:`_parallel_budget` of them in flight — so
    every result, evaluation count included, is the one ``jobs=1``
    returns.  Results are returned in input order.
    """
    searches = list(searches)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not searches:
        return []
    cache: Optional[CapacityCache] = None
    if warm_start_cache is not None:
        cache = (
            warm_start_cache
            if isinstance(warm_start_cache, CapacityCache)
            else CapacityCache(warm_start_cache)
        )

    # Dedupe identical searches within the batch by signature: fig15-style
    # grids submit e.g. the size-1 fleet once *per policy*, and schema v3
    # normalises the policy out of single-server signatures precisely
    # because those runs are event-identical.  Followers replay the
    # leader's answer after one verifying evaluation under their own
    # simulator, so each still gets a correctly-labelled result.
    leaders: Dict[str, int] = {}
    followers: Dict[int, int] = {}
    if len(searches) > 1:
        for index, search in enumerate(searches):
            digest = search._digest
            if digest is None:
                continue
            if digest in leaders:
                followers[index] = leaders[digest]
            else:
                leaders[digest] = index

    results: List[Optional[CapacityResult]] = [None] * len(searches)
    unfinished: Dict[int, Optional[float]] = {}  # index -> replay rate
    for index, search in enumerate(searches):
        if index in followers:
            continue
        replay_rate = None
        if cache is not None and search._digest is not None:
            memo = cache.memo_load(cast(str, search._memo_digest))
            if memo is not None:
                # This process already ran the identical search against this
                # cache instance: its full result replays without any
                # re-verification (it *is* the earlier result).
                results[index] = dataclasses.replace(memo, evaluations=0)
                continue
            # The signature pins every decision input, so the cached QPS is
            # exactly what a cold serial search would return; one verifying
            # evaluation rebuilds its deterministic result.
            replay_rate = cache.load(cast(Dict[str, Any], search.signature()))
        unfinished[index] = replay_rate

    with pool_scope(jobs, pool) as worker_pool:
        budget = _parallel_budget(jobs, worker_pool)
        _run(searches, unfinished, results, cache, worker_pool, budget)
        replays: Dict[int, Optional[float]] = {}
        for index, leader in followers.items():
            leader_qps = cast(CapacityResult, results[leader]).max_qps
            if leader_qps > 0:
                replays[index] = leader_qps
            else:
                # An infeasible leader needs no verification: the follower
                # is infeasible too.
                search = searches[index]
                infeasible = CapacityResult(0.0, search.sla_latency_s, None, 0)
                results[index] = infeasible
                _record(cache, search, infeasible, searched=False)
        _run(searches, replays, results, cache, worker_pool, budget)
    return cast(List[CapacityResult], results)


def _run(
    searches: List[CapacitySearch],
    unfinished: Dict[int, Optional[float]],
    results: List[Optional[CapacityResult]],
    cache: Optional[CapacityCache],
    pool: WorkerPool,
    budget: int,
) -> None:
    """Run every ``unfinished`` search (index -> replay rate) and record it:
    one pool task per search when the budget allows more than one at once,
    else inline."""
    if budget > 1 and pool.parallelism > 1 and unfinished:
        futures: Dict[int, Future] = {}
        for index in unfinished:
            # Pre-fill the engines' latency tables so freshly forked workers
            # inherit warm tables instead of each rebuilding them lazily.
            search = searches[index]
            warm_latency_tables(
                search._fleet(), getattr(search._load_generator.sizes, "max_size", None)
            )
        for index, replay_rate in unfinished.items():
            in_flight = [future for future in futures.values() if not future.done()]
            if len(in_flight) >= budget:
                next(as_completed(in_flight))
            futures[index] = pool.submit(
                _search, replay_rate, context=searches[index]._context()
            )
        outcomes: Iterable[Tuple[int, Tuple[CapacityResult, bool]]] = (
            (index, future.result()) for index, future in futures.items()
        )
    else:
        outcomes = (
            (index, _search(searches[index], replay_rate))
            for index, replay_rate in unfinished.items()
        )
    for index, (result, searched) in outcomes:
        results[index] = result
        _record(cache, searches[index], result, searched)


def _record(
    cache: Optional[CapacityCache],
    search: CapacitySearch,
    result: CapacityResult,
    searched: bool,
) -> None:
    """Store a finished search's result in the caller's cache."""
    if cache is None or search._digest is None:
        return
    # Only a bisection's answer is new to the disk tier: a replayed one is
    # already there (or is a batch leader's, stored under the same
    # signature), so a replay populates only the memo.
    if searched and result.max_qps > 0:
        cache.store(cast(Dict[str, Any], search.signature()), result.max_qps)
    cache.memo_store(cast(str, search._memo_digest), result)
