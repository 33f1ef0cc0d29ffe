"""The capacity search: one entry point for single-server and fleet QPS.

The paper's headline figures all reduce to the same question — the largest
offered load whose p95 latency stays inside the SLA — asked of either one
server or a fleet.  :class:`CapacitySearch` answers both:

* ``CapacitySearch.for_server(...)`` and ``CapacitySearch.for_fleet(...)``
  describe the search; :meth:`CapacitySearch.run` executes it;
* execution is **completion-driven**: the bisection's decision tree lives in
  a :class:`~repro.serving.capacity.BisectionMachine`, and with ``jobs > 1``
  up to ``jobs`` candidate rates stay in flight on the invocation's shared
  :class:`~repro.runtime.pool.WorkerPool` — each completion advances the
  tree immediately, invalidated speculation is cancelled/ignored, and the
  pipeline refills.  Evaluations are deterministic functions of the rate, so
  the result is **identical** to the serial search; speculation only buys
  wall-clock time (and is never wider than the host's cores);
* :func:`run_capacity_searches` drives *many* searches over the one pool
  concurrently — a sweep's searches interleave their evaluations, keeping
  the pool full even when a single bisection's lookahead cannot;
* ``warm_start_cache`` consults a :class:`~repro.serving.capacity.CapacityCache`
  under a schema-versioned signature covering the engines, fleet shape,
  SLA, workload and trace seed, and search fidelity.  Because the signature
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
>>> from repro.serving.capacity import CapacityCache
>>> with tempfile.TemporaryDirectory() as cache_dir:
...     cache = CapacityCache(cache_dir)
...     cold = search.run(warm_start_cache=cache)
...     memo = search.run(warm_start_cache=cache)
...     (memo.max_qps == cold.max_qps == result.max_qps, memo.evaluations)
(True, 0)
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union, cast

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
from repro.serving.capacity import (
    BisectionMachine,
    CapacityCache,
    CapacityResult,
    estimate_upper_bound_qps,
    measurement_queries,
    offload_size_stats,
    speculative_rates,
)
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulator,
    LoadBalancer,
    estimate_fleet_upper_bound_qps,
    warm_latency_tables,
)
from repro.serving.simulator import (
    CertainAcceptance,
    CertainRejection,
    ServingConfig,
    ServingSimulator,
    pause_gc,
)
from repro.utils.validation import check_positive

#: Version of the warm-start signature schema.  Folded into every signature,
#: so entries written under a different schema can never be replayed; bump it
#: whenever the search semantics or the signature's coverage change.
#: (v3: balancing policy and seed are normalised out of single-server fleet
#: signatures — with one server every policy is pass-through and the run is
#: event-identical, so policy variants of the same search now share entries.)
CAPACITY_SCHEMA_VERSION = 3

#: Sentinel for "signature not computed yet" (None is a valid signature
#: outcome, so it cannot double as the marker).
_UNCOMPUTED = object()


def _memo_key(signature: Dict[str, Any], search: "CapacitySearch") -> Dict[str, Any]:
    """In-process memo key: the signature *plus* presentation-only fields.

    Single-server fleets normalise the balancing policy out of the shared
    signature (any policy computes the identical run), which is safe for
    the replay tier — its verifying evaluation runs under the search's own
    policy and rebuilds the correctly-labelled result.  The memo tier
    returns a stored result object verbatim, so it must not cross policies:
    a least-outstanding result replayed for a power-of-two search would
    carry the wrong policy label even though every measured number matches.
    """
    return {
        "signature": signature,
        "memo_policy": search._policy_name(),
        "memo_balancer_seed": search._balancer_seed,
    }


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
# Worker-side evaluation (also the serial path, via TaskContext.build)
# --------------------------------------------------------------------------- #


def _evaluator_state(
    simulator: Any,
    sla_latency_s: float,
    num_queries: int,
    max_queries: int,
    load_generator: LoadGenerator,
    accept_early: bool = False,
) -> Dict[str, Any]:
    """The state dict :func:`_evaluate_rate` consumes — defined in one place
    so the serial/replay path (seeded with the parent's simulator) and the
    pool-worker path (:func:`_build_evaluator`) can never drift apart."""
    return {
        "simulator": simulator,
        "sla_latency_s": sla_latency_s,
        "num_queries": num_queries,
        "max_queries": max_queries,
        "load_generator": load_generator,
        "accept_early": accept_early,
    }


def _build_evaluator(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Construct the simulator and stream parameters one evaluator needs.

    Runs once per pool worker (cached by context token); the serial path
    seeds the same state shape with the parent's validated simulator, so
    both paths evaluate rates through identical state.
    """
    if payload["kind"] == "fleet":
        simulator: Any = ClusterSimulator(
            payload["servers"],
            balancer=payload["balancer"],
            warmup_fraction=payload["warmup_fraction"],
            balancer_seed=payload["balancer_seed"],
            fault_plan=payload.get("fault_plan"),
            retry_policy=payload.get("retry_policy"),
            latency_stats=payload.get("latency_stats", "exact"),
        )
    else:
        simulator = ServingSimulator(
            payload["engines"],
            payload["config"],
            latency_stats=payload.get("latency_stats", "exact"),
        )
    return _evaluator_state(
        simulator,
        payload["sla_latency_s"],
        payload["num_queries"],
        payload["max_queries"],
        payload["load_generator"],
        payload.get("accept_early", False),
    )


def _evaluate_rate(state: Dict[str, Any], rate_qps: float, reject: bool = True) -> Any:
    """Run the simulator at one offered load and return its result.

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

    With the search's opt-in ``accept_early``, the same call also arms the
    dual certain-acceptance exit, so accepted probes stop at their
    certificate and return a
    :class:`~repro.serving.simulator.CertainAcceptance` stub
    (verdict-identical again).  The search re-runs the single evaluation it
    reports through :meth:`_SearchExecution._full_result`, so reported
    results stay bit-identical to the accept-off search.
    """
    generator = state["load_generator"].with_rate(rate_qps)
    sla = state["sla_latency_s"]
    count = measurement_queries(rate_qps, sla, state["num_queries"], state["max_queries"])
    with pause_gc():  # query generation is allocation-heavy, cycle-free
        return state["simulator"].run(
            generator.generate(count),
            reject_above_sla_s=sla if reject else None,
            accept_within_sla_s=(
                sla if reject and state.get("accept_early") else None
            ),
        )


# --------------------------------------------------------------------------- #
# The unified search
# --------------------------------------------------------------------------- #


class CapacitySearch:
    """One latency-bounded capacity search over a server or a fleet.

    Build with :meth:`for_server` or :meth:`for_fleet`, then :meth:`run`.
    The parallel path (``jobs > 1``) and the warm-start replay are both
    decision-identical to a cold serial search — callers choose them purely
    on wall-clock grounds.
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
        accept_early: bool = False,
        latency_stats: str = "exact",
    ) -> None:
        check_positive("sla_latency_s", sla_latency_s)
        check_positive("num_queries", num_queries)
        check_positive("iterations", iterations)
        if fault_plan is not None and fault_plan.is_empty():
            fault_plan = None  # the "no faults" sentinel, like the simulator
        if fault_plan is not None and kind != "fleet":
            raise ValueError("fault injection is only supported for fleet searches")
        self._kind = kind
        # accept_early arms the certain-acceptance exit on probe
        # evaluations.  Verdicts are identical to full runs, so the
        # bisection takes the same decisions and the reported result (one
        # re-run full evaluation) is bit-identical — which is also why the
        # flag stays *out* of the warm-start signature: both settings
        # compute the same answer and may share cache entries.
        self._accept_early = accept_early
        self._latency_stats = latency_stats
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
        self._signature_memo: Any = _UNCOMPUTED
        # Fail fast on an invalid fleet/config — in the parent, not mid-run
        # inside a worker.  The validated simulator is kept and reused as
        # the serial/replay evaluator, so a serial search builds it once.
        if kind == "fleet":
            assert self._servers is not None and balancer is not None
            self._local_simulator: Any = ClusterSimulator(
                self._servers,
                balancer=balancer,
                warmup_fraction=warmup_fraction,
                balancer_seed=balancer_seed,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                latency_stats=latency_stats,
            )
        else:
            assert engines is not None and config is not None
            self._local_simulator = ServingSimulator(
                engines, config, latency_stats=latency_stats
            )

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
        accept_early: bool = False,
        latency_stats: str = "exact",
    ) -> "CapacitySearch":
        """A single-server search.

        ``accept_early`` opts probe evaluations into the certain-acceptance
        exit (same answer, less simulated work); ``latency_stats="sketch"``
        runs every evaluation with fixed-space latency statistics for
        million-query fidelity settings (approximate p95s — the measured
        capacity may differ from the exact mode's within the sketch's
        rank-error bound, so the two modes never share cache entries).
        """
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
            accept_early=accept_early,
            latency_stats=latency_stats,
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
        accept_early: bool = False,
        latency_stats: str = "exact",
    ) -> "CapacitySearch":
        """A fleet search.

        The offered stream is generated once per candidate rate and routed
        by ``balancer``, so the measured capacity includes balancing losses
        (a skewed policy saturates one server before the fleet is nominally
        full).  With ``jobs > 1`` servers and balancer must be picklable.
        ``fault_plan`` / ``retry_policy`` make every candidate-rate
        evaluation run fault-injected, so the search measures capacity
        *under* the plan's crashes and stragglers.  ``accept_early`` /
        ``latency_stats`` as in :meth:`for_server` (fault-injected runs
        ignore the acceptance arming — see
        :meth:`~repro.serving.cluster.ClusterSimulator.run` — and reject
        sketch mode outright).
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
            accept_early=accept_early,
            latency_stats=latency_stats,
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
        if self._kind == "fleet":
            assert self._servers is not None
            return estimate_fleet_upper_bound_qps(self._servers, self._load_generator)
        assert self._engines is not None and self._config is not None
        sizes = self._load_generator.sizes
        large_fraction, mean_large = offload_size_stats(
            sizes, self._config.offload_threshold
        )
        return estimate_upper_bound_qps(
            self._engines, self._config, sizes.mean(), large_fraction, mean_large
        )

    def signature(self) -> Optional[Dict[str, Any]]:
        """Schema-versioned canonical description of this search, or None.

        Covers everything the bisection's decision tree depends on: the
        fleet shape (engines, speed factors, scheduling configs), balancing
        policy and seed, SLA, workload components and trace seed, and the
        search fidelity knobs.  Returns None when any component cannot be
        described canonically (e.g. a custom balancer instance or a size
        distribution with unserialisable state), in which case warm-start
        caching is silently skipped.  Computed once per search (the inputs
        are frozen at construction) and memoised.
        """
        if self._signature_memo is not _UNCOMPUTED:
            return self._signature_memo
        self._signature_memo = self._compute_signature()
        return self._signature_memo

    def _compute_signature(self) -> Optional[Dict[str, Any]]:
        fleet = self._fleet()
        # With a single server every balancing policy degenerates to
        # pass-through and the run is event-identical (the balancer can only
        # ever pick server 0), so policy and balancer seed are normalised
        # out: policy variants of the same one-server search share a cache
        # entry instead of recomputing identical answers.
        single = len(fleet) == 1
        try:
            signature: Dict[str, Any] = {
                "kind": "capacity-search",
                "schema": CAPACITY_SCHEMA_VERSION,
                "search": self._kind,
                "servers": [_server_signature(s) for s in fleet],
                "policy": None if single else self._policy_name(),
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
            # Sketch-mode p95s are approximate, so sketch searches can land
            # on a different capacity than exact ones — they must not share
            # cache entries.  Folded in only when non-default, so exact
            # signatures (and their digests) stay byte-identical to older
            # builds.  accept_early is deliberately absent: it computes the
            # identical answer (see __init__).
            if self._latency_stats != "exact":
                signature["latency_stats"] = self._latency_stats
            json.dumps(signature, sort_keys=True)  # probe serialisability
        except (TypeError, ValueError, AttributeError):
            return None
        return signature

    # ------------------------------------------------------------------ #

    def _payload(self) -> Dict[str, Any]:
        shared = {
            "sla_latency_s": self._sla_latency_s,
            "num_queries": self._num_queries,
            "max_queries": self._max_queries,
            "load_generator": self._load_generator,
            "accept_early": self._accept_early,
            "latency_stats": self._latency_stats,
        }
        if self._kind == "fleet":
            return {
                "kind": "fleet",
                "servers": self._servers,
                "balancer": self._balancer,
                "warmup_fraction": self._warmup_fraction,
                "balancer_seed": self._balancer_seed,
                "fault_plan": self._fault_plan,
                "retry_policy": self._retry_policy,
                **shared,
            }
        return {
            "kind": "server",
            "engines": self._engines,
            "config": self._config,
            **shared,
        }

    def _context(self) -> TaskContext:
        """Evaluator context: serial/replay paths reuse the parent's validated
        simulator; pool workers build their own (deterministic) copy."""
        return TaskContext(
            _build_evaluator,
            self._payload(),
            value=_evaluator_state(
                self._local_simulator,
                self._sla_latency_s,
                self._num_queries,
                self._max_queries,
                self._load_generator,
                self._accept_early,
            ),
        )

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

        ``jobs > 1`` keeps up to ``jobs`` speculative rate evaluations in
        flight on a worker pool — an explicitly passed ``pool``, else the
        invocation's shared pool (:func:`~repro.runtime.pool.shared_pool`),
        else a private pool closed before returning — reacting to each
        completion as it lands (never more in-flight work than the host has
        cores; inside a pool worker the search runs serially).  The returned
        result is identical to the serial search's in all cases.

        ``warm_start_cache`` (a :class:`~repro.serving.capacity.CapacityCache`
        or a directory path) replays a previously recorded identical search
        after one verifying evaluation at the cached rate, and records this
        search's outcome for future runs.
        """
        return run_capacity_searches(
            [self], jobs=jobs, warm_start_cache=warm_start_cache, pool=pool
        )[0]


# --------------------------------------------------------------------------- #
# Completion-driven execution
# --------------------------------------------------------------------------- #


def _host_cores() -> int:
    """Physical parallelism available to this process (monkeypatchable)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _parallel_budget(jobs: int, pool: WorkerPool) -> int:
    """Concurrent evaluations worth keeping in flight.

    Speculative evaluations beyond the host's cores cannot run anywhere —
    they only add fork/IPC overhead and wasted work — so the budget is
    clamped by the physical core count as well as the pool width.  On a
    one-core host every search therefore degrades to the exact serial
    search, no matter how large a ``jobs`` budget the caller requested.

    Pools that span hosts (``pool.spans_hosts``, e.g. the remote worker
    fleet) are exempt from the core clamp: their workers run on *other*
    machines, so the local core count says nothing about how many
    evaluations can genuinely proceed at once.
    """
    width = min(jobs, pool.max_workers)
    if not getattr(pool, "spans_hosts", False):
        width = min(width, _host_cores())
    return max(1, width)


class _SearchExecution:
    """Live state of one capacity search inside the completion-driven driver.

    Tracks the search's decision machine (or pending replay verification),
    the results that have landed, and the futures still in flight.  The
    same object drives the serial path (inline, zero speculation) and the
    parallel path; only the scheduling around it differs.
    """

    __slots__ = (
        "search",
        "sla",
        "cache",
        "signature",
        "context",
        "machine",
        "replay_rate",
        "results",
        "pending",
        "evaluations",
        "cancelled",
        "result",
    )

    def __init__(self, search: CapacitySearch, cache: Optional[CapacityCache]) -> None:
        self.search = search
        self.sla = search.sla_latency_s
        self.cache = cache
        self.signature = search.signature() if cache is not None else None
        self.context = search._context()
        self.machine: Optional[BisectionMachine] = None
        self.replay_rate: Optional[float] = None
        self.results: Dict[float, Any] = {}
        self.pending: Dict[float, Future] = {}
        self.evaluations = 0
        self.cancelled = 0
        self.result: Optional[CapacityResult] = None
        if cache is not None and self.signature is not None:
            memo = cache.memo_load(_memo_key(self.signature, search))
            if memo is not None:
                # This process already ran the identical search against this
                # cache instance: its full result replays without any
                # re-verification (it *is* the earlier result).
                self.result = dataclasses.replace(memo, evaluations=0)
                return
            cached = cache.load(self.signature)
            if cached is not None:
                # The signature pins every decision input, so the cached QPS
                # is exactly what a cold serial search would return; one
                # verifying evaluation rebuilds its deterministic result.
                self.replay_rate = cached
                return
        self._build_machine()

    def _build_machine(self) -> None:
        search = self.search
        self.machine = BisectionMachine(search.default_upper_qps(), search._iterations)

    # ------------------------------------------------------------------ #

    def needed_rates(self, limit: int) -> List[float]:
        """Rates to keep in flight: the needed one first, speculation after."""
        if self.result is not None:
            return []
        if self.replay_rate is not None:
            return [self.replay_rate]
        assert self.machine is not None  # built whenever no replay/result short-circuits
        return speculative_rates(self.machine, limit)

    def absorb(self) -> None:
        """Advance the decision state as far as landed results allow."""
        while self.result is None:
            if self.replay_rate is not None:
                replay = self.results.get(self.replay_rate)
                if replay is None:
                    return
                if replay.acceptable(self.sla):
                    # The entry being replayed is already on disk; only the
                    # in-process memo needs populating.  With accept_early
                    # the verifying run may be a stub — _full_result re-runs
                    # it so the reported result carries full statistics.
                    self._finish(
                        self.replay_rate, self._full_result(self.replay_rate),
                        store=False,
                    )
                    return
                # An entry the simulator no longer sustains is stale (e.g. a
                # foreign file dropped into the directory): search cold.
                self.replay_rate = None
                self._build_machine()
                continue
            assert self.machine is not None  # no replay pending, so it was built
            rate = self.machine.next_rate()
            outcome = self.results.get(rate)
            if outcome is None:
                return
            self.machine.advance(outcome.acceptable(self.sla))
            if self.machine.done:
                if self.machine.result_rate is None:
                    self._finish(0.0, None)
                else:
                    self._finish(
                        self.machine.max_qps,
                        self._full_result(self.machine.result_rate),
                    )
                return

    def _full_result(self, rate: float) -> Any:
        """The complete simulation result backing ``CapacityResult.result``.

        Without ``accept_early``, accepted evaluations always ran to
        completion, so this is normally the recorded outcome.  The two
        exceptions are early-exit stubs: the unbracketed exit may report a
        *rejected* rate whose recorded outcome is a
        :class:`CertainRejection`, and with ``accept_early`` the reported
        accepted rate's outcome is a :class:`CertainAcceptance`.  Either
        way the serial contract attaches the full measurement at that rate:
        re-run that single evaluation without the early exits (a
        deterministic function of the rate, so bit-identical to what the
        exit-free search returned).
        """
        outcome = self.results[rate]
        if isinstance(outcome, (CertainRejection, CertainAcceptance)):
            outcome = _evaluate_rate(self.context.build(), rate, reject=False)
            self.results[rate] = outcome
            self.evaluations += 1
        return outcome

    def _finish(self, max_qps: float, outcome: Any, store: bool = True) -> None:
        self.result = CapacityResult(
            max_qps=max_qps,
            sla_latency_s=self.sla,
            result=outcome,
            evaluations=self.evaluations,
        )
        if self.cache is not None and self.signature is not None:
            if store and max_qps > 0:
                self.cache.store(self.signature, max_qps)
            self.cache.memo_store(_memo_key(self.signature, self.search), self.result)

    # ------------------------------------------------------------------ #

    def run_serial(self) -> None:
        """Drive this search to completion inline (the exact serial search)."""
        state = self.context.build()
        while self.result is None:
            rates = self.needed_rates(1)
            rate = rates[0]
            self.results[rate] = _evaluate_rate(state, rate)
            self.evaluations += 1
            self.absorb()


def run_capacity_searches(
    searches: Sequence[CapacitySearch],
    jobs: int = 1,
    warm_start_cache: Union[CapacityCache, str, Path, None] = None,
    pool: Optional[WorkerPool] = None,
) -> List[CapacityResult]:
    """Run several capacity searches concurrently over one worker pool.

    The cross-search form of :meth:`CapacitySearch.run`: every search's
    candidate evaluations are submitted into the same pool and each search's
    decision tree advances the moment one of *its* results lands, so the
    pool stays full even when a single bisection's lookahead is narrower
    than the worker budget (small fleets, tight brackets).  The in-flight
    budget is shared — needed rates of all searches first, deeper
    speculation after — and each search's outcome is exactly what
    :meth:`CapacitySearch.run` would return with the same options (searches
    are independent).  Results are returned in input order.
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
            signature = search.signature()
            if signature is None:
                continue
            digest = CapacityCache.digest(signature)
            if digest in leaders:
                followers[index] = leaders[digest]
            else:
                leaders[digest] = index

    with pool_scope(jobs, pool) as worker_pool:
        budget = _parallel_budget(jobs, worker_pool)
        executions = {
            index: _SearchExecution(search, cache)
            for index, search in enumerate(searches)
            if index not in followers
        }
        pending_executions = [
            execution for execution in executions.values() if execution.result is None
        ]
        if budget > 1 and worker_pool.parallelism > 1 and pending_executions:
            # Pre-fill the engines' latency tables so freshly forked workers
            # inherit warm tables instead of each rebuilding them lazily.
            for execution in pending_executions:
                warm_latency_tables(
                    execution.search._fleet(),
                    getattr(execution.search._load_generator.sizes, "max_size", None),
                )
            _drive_completion(list(executions.values()), worker_pool, budget)
        else:
            for execution in pending_executions:
                execution.run_serial()

        results: List[Optional[CapacityResult]] = [None] * len(searches)
        for index, execution in executions.items():
            results[index] = execution.result
        for index, leader_index in followers.items():
            leader_result = results[leader_index]
            assert leader_result is not None  # leaders run before followers replay
            results[index] = _replay_for_follower(searches[index], leader_result, cache)
    assert all(result is not None for result in results)
    return cast(List[CapacityResult], results)


def _replay_for_follower(
    search: CapacitySearch,
    leader: CapacityResult,
    cache: Optional[CapacityCache],
) -> CapacityResult:
    """A duplicate search's result, replayed from its leader's answer.

    Exactly the replay-exact tier's contract, without the disk round trip:
    one verifying evaluation through the follower's own simulator rebuilds
    the (deterministic, correctly-labelled) result at the leader's
    capacity.  An infeasible leader is infeasible for the follower too.
    The pathological case of a failed verification — possible only if the
    two searches were not actually identical — falls back to running the
    follower cold.
    """
    if leader.max_qps <= 0 or leader.result is None:
        return CapacityResult(
            max_qps=0.0,
            sla_latency_s=search.sla_latency_s,
            result=None,
            evaluations=0,
        )
    state = search._context().build()
    replay = _evaluate_rate(state, leader.max_qps)
    if replay.acceptable(search.sla_latency_s):
        evaluations = 1
        if isinstance(replay, CertainAcceptance):
            # accept_early stubbed the verifying run; the stored result
            # must carry full statistics, so re-run it exit-free.
            replay = _evaluate_rate(state, leader.max_qps, reject=False)
            evaluations = 2
        result = CapacityResult(
            max_qps=leader.max_qps,
            sla_latency_s=search.sla_latency_s,
            result=replay,
            evaluations=evaluations,
        )
        signature = search.signature()
        if cache is not None and signature is not None:
            cache.memo_store(_memo_key(signature, search), result)
        return result
    return _run_follower_cold(search, cache)


def _run_follower_cold(
    search: CapacitySearch, cache: Optional[CapacityCache]
) -> CapacityResult:
    """Safety net: run a follower as its own serial search."""
    execution = _SearchExecution(search, cache)
    if execution.result is None:
        execution.run_serial()
    assert execution.result is not None  # run_serial only returns with a result
    return execution.result


def _drive_completion(
    executions: List[_SearchExecution], pool: WorkerPool, budget: int
) -> None:
    """React to evaluation completions until every search concludes.

    Each cycle: absorb landed results into every machine, refill the shared
    in-flight budget breadth-first across searches (every active search's
    *needed* rate before anyone's deeper speculation), mark speculation a
    tighter bracket has invalidated as cancelled, then block until at least
    one in-flight evaluation lands.
    """
    while True:
        for execution in executions:
            execution.absorb()
        active = [e for e in executions if e.result is None]
        if not active:
            return

        # Budget accounting spans *all* executions: a search that concluded
        # with speculation still running leaves orphaned tasks occupying
        # workers, and submitting past them would oversubscribe the
        # core-clamped budget.  (Completed futures stop counting.)
        total_pending = sum(
            1
            for execution in executions
            for future in execution.pending.values()
            if not future.done()
        )
        plans = {id(e): e.needed_rates(budget) for e in active}
        for depth in range(budget):
            if total_pending >= budget:
                break
            for execution in active:
                if total_pending >= budget:
                    break
                plan = plans[id(execution)]
                if depth >= len(plan):
                    continue
                rate = plan[depth]
                if rate in execution.results or rate in execution.pending:
                    continue
                execution.pending[rate] = pool.submit(
                    _evaluate_rate, rate, context=execution.context
                )
                execution.evaluations += 1
                total_pending += 1

        # Speculation outside the machine's still-reachable decision tree
        # can never be consumed: mark it cancelled (the process task itself
        # cannot be revoked; the result is simply ignored when it lands).
        for execution in active:
            if execution.replay_rate is not None:
                continue
            reachable = set(speculative_rates(execution.machine, 4 * budget))
            for rate, future in execution.pending.items():
                if rate not in reachable and future.cancel():
                    execution.cancelled += 1

        # Wait on every in-flight future, orphans of finished searches
        # included: when orphans hold the whole budget, active searches have
        # nothing pending, and waiting only on theirs would busy-spin.
        in_flight = [
            future
            for execution in executions
            for future in execution.pending.values()
        ]
        for _ in as_completed(in_flight):
            break  # wake on the first completion, then harvest everything done
        for execution in executions:  # finished searches' orphans drain too
            landed = [
                rate for rate, future in execution.pending.items() if future.done()
            ]
            for rate in landed:
                future = execution.pending.pop(rate)
                if execution.result is not None:
                    # The search already concluded; the orphan's outcome —
                    # including a worker error — is irrelevant.
                    continue
                execution.results[rate] = future.result()
