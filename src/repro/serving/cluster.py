"""Fleet-scale serving: a multi-server cluster simulator with pluggable balancing.

The paper evaluates recommendation inference on production fleets of
heterogeneous servers, not on one machine.  :class:`ClusterSimulator` fans a
single query stream out across N simulated servers — each an independent
:class:`~repro.serving.simulator.ServerKernel`, optionally heterogeneous
(different platforms, core counts, batch sizes, with or without an attached
accelerator) — behind a pluggable load balancer, and aggregates fleet-level
tail latency, per-server utilisation, and QPS-at-SLA capacity.

Balancing decisions are made *online*, at each query's arrival instant,
against the fleet's load vector: each server's live count of outstanding
items, one list the kernels share.  There is one event
loop, :class:`~repro.serving.simulator.EventLoop`: ``run`` sorts the
queries and streams them through it, ``run_stream`` streams directly,
``stream`` keeps it open to feed in batches, and :class:`ServingSimulator`
runs it with one server — so a cluster of one server reproduces the
single-server simulator's measurements exactly.  A
:class:`~repro.faults.FaultPlan` joins the loop as an optional event source
(:class:`FaultInjector`: crashes, recoveries, stragglers, retries and
hedges); without a plan the loop has no source to consult.

Five balancing policies ship by default:

* ``random`` — assign each query to a uniformly random server, blind to load
  (the pre-partitioning scheme the datacenter simulation historically used);
* ``round-robin`` — cycle through servers regardless of load;
* ``least-outstanding`` — send each query to the server with the least
  outstanding work (items queued or in flight);
* ``weighted-least-outstanding`` — least outstanding work normalised by each
  node's speed factor, so a slow node carrying the same item count as a fast
  one is correctly seen as busier (weighted round-robin's load signal);
* ``power-of-two`` — sample two distinct servers uniformly and pick the less
  loaded one (the classic "power of two choices" scheme, which captures most
  of least-outstanding's benefit with O(1) state probes).
"""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.execution.engine import EnginePair, build_cpu_engine
from repro.execution.scaled_engine import ScaledCPUEngine
from repro.faults.plan import (
    KIND_CRASH,
    KIND_RECOVER,
    KIND_SLOW_OFF,
    KIND_SLOW_ON,
    FaultEvent,
    FaultPlan,
    FaultStats,
    NodeHealth,
    RetryPolicy,
)
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query, QueryStream, Row, arrival_rows, query_row
from repro.queries.size_dist import QuerySizeDistribution
from repro.serving.simulator import (
    CertainRejection,
    EventLoop,
    SLACriteriaMixin,
    ServerKernel,
    ServerLoadSummary,
    ServingConfig,
    _INFINITY,
    build_kernels,
    misrouted,
    resolve_num_cores,
    run_event_loop,
    summarize_server,
)
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive


# --------------------------------------------------------------------------- #
# Load-balancing policies
# --------------------------------------------------------------------------- #


class LoadBalancer(ABC):
    """Chooses the destination server for each arriving query.

    Balancers are stateful across one simulated run (``reset`` is called at
    the start of every :meth:`ClusterSimulator.run`) and see the fleet only
    through its *load vector*: ``choose(loads)`` gets one list whose entry
    ``loads[i]`` is server ``i``'s live count of outstanding items (queued
    or in flight) — the signal a production balancer gets from per-backend
    in-flight counters — and returns the index of the chosen server.  The
    list is the simulator's live state, shared by the fleet's kernels: a
    custom balancer must read it, never modify or keep it.  It does not see
    the query being routed; static node properties come from
    :meth:`prepare`, health from :meth:`observe_health`.
    """

    #: Registry name of the policy (e.g. ``"round-robin"``).
    name: str = ""

    def prepare(self, servers: Sequence["ClusterServer"]) -> None:
        """Observe the fleet's static description before a run.

        Called by :meth:`ClusterSimulator.run` before :meth:`reset` with the
        fleet's :class:`ClusterServer` entries, so policies that weight their
        load signal by static node properties (speed factors, core counts)
        can precompute per-node weights.  The default is a no-op.
        """

    def reset(self, num_servers: int) -> None:
        """Prepare for a fresh run over ``num_servers`` servers."""

    def observe_health(self, health: Sequence[NodeHealth]) -> None:
        """Receive the fleet's live health view (fault-injected runs only).

        Called by :meth:`ClusterSimulator.run` once before the first arrival
        and again after every fault transition, with a per-node list of
        :class:`~repro.faults.NodeHealth` the simulator mutates in place —
        the production analogue of a balancer's health-check feed.  Every
        change is followed by a call, so a policy may read the view once
        per call rather than once per ``choose``.  Runs without a
        :class:`~repro.faults.FaultPlan` never call this, so health-blind
        policies stay bit-identical.  The default is a no-op.
        """

    @abstractmethod
    def choose(self, loads: List[int]) -> int:
        """Index of the server that should take the arriving query.

        ``loads[i]`` is server ``i``'s outstanding items right now; the
        fleet has ``len(loads)`` servers.
        """


class RandomBalancer(LoadBalancer):
    """Assign each query to a uniformly random server, ignoring load.

    This is the legacy datacenter-cluster behaviour (random pre-partitioning
    of the stream) recast as an online policy, so the production-fleet
    experiments can compare it directly against load-aware balancing.  Like
    :class:`PowerOfTwoBalancer` it draws from the stdlib Mersenne-Twister
    generator — one bounded scalar per arrival on the hot path, drawn
    exactly as ``random.Random.randrange`` draws it — and streams are
    seed-stable across platforms and Python versions.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        self._getrandbits = self._random.getrandbits

    def reset(self, num_servers: int) -> None:
        self._random.seed(self._seed)

    def choose(self, loads: List[int]) -> int:
        count = len(loads)
        bits = count.bit_length()
        draw = self._getrandbits(bits)
        while draw >= count:
            draw = self._getrandbits(bits)
        return draw


class RoundRobinBalancer(LoadBalancer):
    """Cycle through the fleet, ignoring load (the stateless baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, num_servers: int) -> None:
        self._next = 0

    def choose(self, loads: List[int]) -> int:
        index = self._next % len(loads)
        self._next += 1
        return index


class LeastOutstandingBalancer(LoadBalancer):
    """Send each query to the server with the least outstanding work.

    Outstanding *items* (not query count) is the load signal, so a server
    chewing on one huge query is correctly seen as busier than one holding
    several small queries.  Ties break toward the lowest server index.
    """

    name = "least-outstanding"

    def choose(self, loads: List[int]) -> int:
        # The first minimum: ties break toward the lowest index.
        return loads.index(min(loads))


class WeightedLeastOutstandingBalancer(LoadBalancer):
    """Least outstanding work normalised by each node's speed factor.

    The load vector counts *items*, but on a speed-heterogeneous fleet
    the same item count represents different amounts of remaining service
    time: a node whose ``speed_factor`` is 1.2 (20 % slower than nominal)
    holding 100 items is busier than a nominal node holding 110.  This
    policy weights each node's outstanding items by its service-time
    multiplier — the fleet analogue of weighted round-robin's capacity-aware
    load signal — and routes to the node with the least outstanding *work*.
    Nodes without a ``speed_factor`` (unscaled engines) weigh 1.0, so on a
    homogeneous fleet the policy degenerates to plain least-outstanding.
    Ties break toward the lowest server index.
    """

    name = "weighted-least-outstanding"

    def __init__(self) -> None:
        self._costs: List[float] = []
        self._prepared = False

    def prepare(self, servers: Sequence["ClusterServer"]) -> None:
        self._costs = [
            float(getattr(server.engines.cpu, "speed_factor", 1.0))
            for server in servers
        ]
        self._prepared = True

    def reset(self, num_servers: int) -> None:
        # Weights are valid for exactly one run: without a fresh prepare()
        # (e.g. bare kernels, or a reused instance pointed at a different
        # fleet) every node weighs 1.0 and the policy matches
        # least-outstanding exactly, instead of applying a stale fleet's
        # speed factors.
        if not self._prepared or len(self._costs) != num_servers:
            self._costs = [1.0] * num_servers
        self._prepared = False

    def choose(self, loads: List[int]) -> int:
        costs = self._costs
        best_index = 0
        best_load = loads[0] * costs[0]
        for index in range(1, len(loads)):
            load = loads[index] * costs[index]
            if load < best_load:
                best_index = index
                best_load = load
        return best_index


class PowerOfTwoBalancer(LoadBalancer):
    """Probe two random servers, pick the less loaded (power-of-two-choices).

    Uses the stdlib Mersenne-Twister generator rather than a numpy
    ``Generator``: the balancer draws two bounded scalars per arriving query
    on the simulator's hot path, and a stdlib scalar draw is roughly an
    order of magnitude cheaper.  Each draw inlines the rejection sampling
    ``random.Random.randrange(n)`` does (``getrandbits(n.bit_length())``
    until below ``n``), so the streams equal ``randrange``'s without its
    two Python frames per draw (pinned in ``tests/test_serving_cluster.py``).
    Streams are seed-stable across platforms and Python versions.
    """

    name = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        self._getrandbits = self._random.getrandbits

    def reset(self, num_servers: int) -> None:
        self._random.seed(self._seed)

    def choose(self, loads: List[int]) -> int:
        count = len(loads)
        if count == 1:
            return 0
        getrandbits = self._getrandbits
        bits = count.bit_length()
        first = getrandbits(bits)
        while first >= count:
            first = getrandbits(bits)
        bits = (count - 1).bit_length()
        second = getrandbits(bits)
        while second >= count - 1:
            second = getrandbits(bits)
        if second >= first:
            second += 1
        if loads[second] < loads[first]:
            return second
        return first


class FailureAwareBalancer(LeastOutstandingBalancer):
    """Least outstanding work among *healthy* nodes, weighted by slowdown.

    The failure-aware counterpart of :class:`LeastOutstandingBalancer`: the
    simulator's health view (:meth:`LoadBalancer.observe_health`) marks
    crashed nodes, which are skipped entirely, and straggling nodes, whose
    outstanding items are weighted by their current ``slowdown`` so a node
    serving at a third of nominal speed is correctly seen as three times as
    busy.  Ties break toward the lowest server index.

    Without a health view — any run that injects no faults — every node is
    up with slowdown 1.0 and the policy is *exactly* least-outstanding
    (asserted in ``tests/test_faults.py``).  If the whole fleet is down the
    policy degrades to plain least-outstanding over all nodes: the dispatch
    is lost either way, and the retry layer decides what happens next.

    The view is read once per :meth:`observe_health` call, which the fault
    source makes after every transition: while every node is up at
    slowdown 1.0, ``choose`` is least-outstanding's; otherwise it scans a
    list of the up nodes' ``(index, slowdown)`` pairs.
    """

    name = "failure-aware"

    def __init__(self) -> None:
        # The up nodes as (index, slowdown), or None while every node is up
        # at nominal speed (or no health view was observed).
        self._up: Optional[List[Tuple[int, float]]] = None

    def reset(self, num_servers: int) -> None:
        # A health view is valid for exactly one run; the simulator pushes a
        # fresh one (via observe_health) after reset when faults are active.
        self._up = None

    def observe_health(self, health: Sequence[NodeHealth]) -> None:
        up = [(index, node.slowdown) for index, node in enumerate(health) if node.up]
        nominal = len(up) == len(health) and all(
            slowdown == 1.0  # reprolint: disable=RL007 -- exact sentinel: NodeHealth's default and KIND_SLOW_OFF's reset, under which load * slowdown == load exactly
            for _, slowdown in up
        )
        self._up = None if nominal else up

    def choose(self, loads: List[int]) -> int:
        up = self._up
        if up is None:
            return loads.index(min(loads))
        best_index = -1
        best_load = _INFINITY
        for index, slowdown in up:
            load = loads[index] * slowdown
            if load < best_load:
                best_index = index
                best_load = load
        if best_index >= 0:
            return best_index
        # Whole fleet down: any choice is lost; stay deterministic.
        return loads.index(min(loads))


_BALANCER_REGISTRY = {
    RandomBalancer.name: RandomBalancer,
    RoundRobinBalancer.name: RoundRobinBalancer,
    LeastOutstandingBalancer.name: LeastOutstandingBalancer,
    WeightedLeastOutstandingBalancer.name: WeightedLeastOutstandingBalancer,
    PowerOfTwoBalancer.name: PowerOfTwoBalancer,
    FailureAwareBalancer.name: FailureAwareBalancer,
}

#: Policies whose decisions depend on a random stream (and hence on ``seed``).
_SEEDED_BALANCERS = (RandomBalancer, PowerOfTwoBalancer)


def available_balancers() -> List[str]:
    """Registered balancing-policy names, sorted."""
    return sorted(_BALANCER_REGISTRY)


def get_balancer(policy: Union[str, LoadBalancer], seed: int = 0) -> LoadBalancer:
    """Resolve a policy name (or pass through an instance) to a balancer.

    ``seed`` only affects randomised policies (random, power-of-two-choices).
    """
    if isinstance(policy, LoadBalancer):
        return policy
    key = str(policy).lower()
    if key not in _BALANCER_REGISTRY:
        raise KeyError(
            f"unknown balancing policy {policy!r}; available: {available_balancers()}"
        )
    factory = _BALANCER_REGISTRY[key]
    if factory in _SEEDED_BALANCERS:
        return factory(seed=seed)
    return factory()


# --------------------------------------------------------------------------- #
# Fleet description and results
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClusterServer:
    """One server of the fleet: its engines plus its scheduling configuration."""

    engines: EnginePair
    config: ServingConfig
    name: str = ""


def homogeneous_fleet(
    engines: EnginePair, config: ServingConfig, num_servers: int
) -> List[ClusterServer]:
    """A fleet of ``num_servers`` identical servers sharing one engine pair.

    Engines are pure latency models, so sharing one instance across servers
    is safe; all per-run state lives in each server's kernel.
    """
    check_positive("num_servers", num_servers)
    return [
        ClusterServer(engines=engines, config=config, name=f"server-{index}")
        for index in range(num_servers)
    ]


def heterogeneous_fleet(
    model: str,
    config: ServingConfig,
    num_servers: int,
    platform_mix: Optional[Dict[str, float]] = None,
    speed_spread: float = 0.06,
    rng: SeedLike = None,
) -> List[ClusterServer]:
    """A fleet drawn from a platform mix with a per-node speed spread.

    Each server's platform is sampled from ``platform_mix`` (weights need not
    be normalised; default an even Skylake/Broadwell mix) and its engine is a
    :class:`~repro.execution.scaled_engine.ScaledCPUEngine` whose
    ``speed_factor`` is drawn uniformly from ``1 +- speed_spread`` — the
    within-generation heterogeneity (DVFS, memory population, co-located
    workloads) of a production fleet.  One nominal engine is built per
    distinct platform and shared by all its nodes, so the fleet shares one
    latency-table build per platform and every node stays on the dense fast
    path (the scaled view is exactly ``speed_factor x`` the base table).

    ``rng`` accepts a seed or a ``numpy.random.Generator``; the per-node
    draw order (platform, then speed factor) is stable, so a fleet is fully
    reproducible from its seed.
    """
    check_positive("num_servers", num_servers)
    if not 0.0 <= speed_spread < 0.5:
        raise ValueError(f"speed_spread must be in [0, 0.5), got {speed_spread}")
    mix = platform_mix if platform_mix is not None else {"skylake": 0.5, "broadwell": 0.5}
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("platform_mix weights must sum to a positive value")
    generator = derive_rng(rng)
    platform_names = list(mix)
    probabilities = np.array([mix[name] for name in platform_names]) / total
    base_engines: Dict[str, Any] = {}
    servers: List[ClusterServer] = []
    for index in range(num_servers):
        platform_name = str(generator.choice(platform_names, p=probabilities))
        speed_factor = float(1.0 + generator.uniform(-speed_spread, speed_spread))
        base = base_engines.get(platform_name)
        if base is None:
            base = build_cpu_engine(model, platform_name)
            base_engines[platform_name] = base
        servers.append(
            ClusterServer(
                engines=EnginePair(cpu=ScaledCPUEngine(base, speed_factor), gpu=None),
                config=config,
                name=f"node-{index}-{platform_name}",
            )
        )
    return servers


@dataclass
class ClusterSimulationResult(SLACriteriaMixin):
    """Fleet-level measurements from one cluster run.

    The SLA/stability acceptance criterion (``meets_sla`` / ``is_stable`` /
    ``acceptable``) is inherited from :class:`SLACriteriaMixin`, so fleet
    capacity searches judge runs by exactly the single-server rule — with
    one fault-aware refinement: a query lost to faults counts as an SLA
    miss (its latency is effectively infinite), so a balancer that
    blackholes traffic into a dead node cannot *flatter* its p95 by simply
    never completing the slow queries.  Runs with no failed queries use the
    inherited check verbatim.
    """

    policy: str
    num_servers: int
    num_queries: int
    measured_queries: int
    duration_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    achieved_qps: float
    offered_qps: float
    fleet_cpu_utilization: float
    per_server: List[ServerLoadSummary]
    p95_late_window_s: float = 0.0
    drain_s: float = 0.0
    arrival_span_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list, repr=False)
    #: Measured latencies per server (completion order), aligned with
    #: ``per_server``.  Only populated when the simulator was built with
    #: ``collect_per_server_latencies=True``.
    per_server_latencies: Optional[List[List[float]]] = field(
        default=None, repr=False
    )
    #: Fault-injection tally.  ``None`` on runs without a
    #: :class:`~repro.faults.FaultPlan`, so zero-plan results compare equal
    #: to pre-fault-support results field for field.
    fault_stats: Optional[FaultStats] = None

    @property
    def failed_queries(self) -> int:
        """Queries lost to faults after exhausting their retry budget."""
        return self.fault_stats.failed_queries if self.fault_stats else 0

    def meets_sla(self, sla_latency_s: float) -> bool:
        """p95 within target, with failed queries counted as SLA misses.

        A failed query never produces a latency sample, so judging a
        faulted run by the p95 of its *completions* rewards losing queries
        outright.  Instead the failed queries are folded back in at
        effectively infinite latency: the run meets the SLA only if at most
        5% of the *offered-and-measured* population (completions plus
        failures) missed it.  Fault-free runs (``failed_queries == 0``)
        take the inherited single-server check verbatim, keeping zero-plan
        results bit-identical.
        """
        if not self.failed_queries:
            return SLACriteriaMixin.meets_sla(self, sla_latency_s)
        if self.p95_latency_s > sla_latency_s:
            return False  # completions alone already miss the target
        over = self.failed_queries
        over += sum(1 for latency in self.latencies_s if latency > sla_latency_s)
        total = len(self.latencies_s) + self.failed_queries
        return over <= 0.05 * total

    def max_query_share(self) -> float:
        """Largest fraction of the stream any one server absorbed.

        0.0 when no per-server summaries exist (e.g. a result rebuilt from a
        partial serialisation) rather than raising on the empty ``max``.
        """
        if not self.per_server:
            return 0.0
        return max(summary.query_share for summary in self.per_server)


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #


class _FaultTrack:
    """Per-query fault bookkeeping, created lazily on first fault contact.

    Queries never touched by a fault (the overwhelming majority) have no
    track at all.  ``live`` counts dispatched attempts currently running on
    an up node; ``done`` flips when the query completes (first attempt wins)
    or permanently fails.  A track is dropped once it is done with no
    attempt live, so a hedge twin still running keeps its track.
    """

    __slots__ = ("ordinal", "row", "attempts_left", "live", "done")

    def __init__(self, ordinal: int, row: Row, attempts_left: int) -> None:
        self.ordinal = ordinal
        self.row = row
        self.attempts_left = attempts_left
        self.live = 0
        self.done = False


def _healthy_least_loaded(
    loads: List[int], health: Sequence[NodeHealth], exclude: int
) -> int:
    """Least-loaded up node other than ``exclude``; -1 when none exists.

    The deterministic hedge-target rule: ties break toward the lowest index,
    so a fixed fault plan always hedges to the same nodes.
    """
    best_index = -1
    best_load = _INFINITY
    for index in range(len(loads)):
        if index == exclude or not health[index].up:
            continue
        load = loads[index]
        if load < best_load:
            best_index = index
            best_load = load
    return best_index


class FaultInjector:
    """A :class:`~repro.faults.FaultPlan` as an event source for the event loop.

    Two streams feed the loop's external events: the plan's transitions
    (pre-sorted) and retry detections (a small heap); at one instant a
    transition goes before a retry, and the loop runs both after the
    completions and before the arrival due then, so a fixed plan over a
    fixed trace replays bit-identically.

    A crash drops the node's queued and in-flight work (its completion
    events leave the shared heap with it); the lost queries are retried per
    the :class:`~repro.faults.RetryPolicy` or fail.  Queries are known by
    the arrival ordinal the loop assigned them.  One kernel serves a
    node for the whole run, so busy-time and work accounting stay
    cumulative.  A down node still *exists* to health-blind balancers
    (cleared, outstanding 0 — they actively prefer it, which is exactly the
    naive-policy failure mode the degraded-fleet experiment shows);
    dispatches to it are black-holed and noticed ``detect_delay_s`` later.
    Health-aware balancers get the live per-node view through
    :meth:`LoadBalancer.observe_health`.
    """

    def __init__(
        self,
        plan: FaultPlan,
        retry_policy: RetryPolicy,
        kernels: Sequence[ServerKernel],
        balancer: LoadBalancer,
        policy: str,
    ) -> None:
        self._kernels = kernels
        self._loads = kernels[0]._loads
        self._choose = balancer.choose
        self._observe_health = balancer.observe_health
        self._policy = policy
        self._detect_delay = retry_policy.detect_delay_s
        self._max_retries = retry_policy.max_retries
        self._hedge = retry_policy.hedge
        self._transitions = plan.events(len(kernels))
        self._cursor = 0
        self._retries: List[tuple] = []  # heap of (due_time, seq, ordinal)
        self._retry_seq = itertools.count()
        #: Fault state by arrival ordinal, only for queries a fault touched
        #: and not yet resolved with every attempt ended.
        self.tracked: Dict[int, _FaultTrack] = {}
        self.health = [NodeHealth() for _ in kernels]
        #: True while every node is up (dispatch is then a plain submit).
        self.healthy = True
        self.stats = FaultStats()
        self.next_time = _INFINITY
        self._observe_health(self.health)
        self._refresh()

    @property
    def idle(self) -> bool:
        """True when no retry is pending."""
        return not self._retries

    def _refresh(self) -> None:
        transitions = self._transitions
        next_transition = (
            transitions[self._cursor].time_s
            if self._cursor < len(transitions)
            else _INFINITY
        )
        next_retry = self._retries[0][0] if self._retries else _INFINITY
        self._next_transition = next_transition
        self.next_time = min(next_transition, next_retry)

    def step(self) -> None:
        """Process the transition or retry due at ``next_time``."""
        if self._next_transition <= self.next_time:
            self._apply(self._transitions[self._cursor])
            self._cursor += 1
        else:
            due, _, ordinal = heapq.heappop(self._retries)
            track = self.tracked[ordinal]
            if not track.done and track.live == 0:
                self._retry(track, due)
        self._refresh()

    def dispatch(self, ordinal: int, row: Row, chosen: int, now: float) -> None:
        """Submit arrival ``ordinal`` to node ``chosen``, or black-hole it if down."""
        if self.health[chosen].up:
            self._kernels[chosen].submit(ordinal, row, now)
            return
        self.stats.blackholed_dispatches += 1
        self._lost(ordinal, row, now)
        self._refresh()

    def absorb_completion(self, ordinal: int) -> bool:
        """Note a completion; True when a hedge twin already finished first."""
        track = self.tracked.get(ordinal)
        if track is None:
            return False
        twin_finished = track.done
        track.done = True
        track.live -= 1
        if not track.live:
            del self.tracked[ordinal]
        return twin_finished

    # ------------------------------------------------------------------ #

    def _apply(self, transition: FaultEvent) -> None:
        node = transition.node
        kernel = self._kernels[node]
        health = self.health[node]
        kind = transition.kind
        if kind == KIND_CRASH:
            if not health.up:
                return
            health.up = False
            self.healthy = False
            self.stats.crashes += 1
            lost = kernel.crash()
            self.stats.crash_killed_in_flight += len(lost)
            self._observe_health(self.health)
            for ordinal, row in lost:
                self._lost(ordinal, row, transition.time_s)
            return
        if kind == KIND_RECOVER:
            if health.up:
                return
            health.up = True
            self.healthy = all(node.up for node in self.health)
            self.stats.recoveries += 1
        elif kind == KIND_SLOW_ON:
            kernel.service_scale = transition.slowdown
            health.slowdown = transition.slowdown
        else:  # KIND_SLOW_OFF
            kernel.service_scale = 1.0
            health.slowdown = 1.0
        self._observe_health(self.health)

    def _lost(self, ordinal: int, row: Row, now: float) -> None:
        """An attempt at arrival ``ordinal`` was lost: its node crashed, or was down."""
        track = self.tracked.get(ordinal)
        if track is None:
            track = _FaultTrack(ordinal, row, self._max_retries)
            self.tracked[ordinal] = track
        elif track.live > 0:
            track.live -= 1
        if track.live == 0:
            if track.done:
                del self.tracked[ordinal]  # a finished query's hedge twin
            else:
                self._retry_or_fail(track, now)

    def _retry(self, track: _FaultTrack, now: float) -> None:
        """Consume one retry: re-dispatch (optionally hedged)."""
        kernels = self._kernels
        track.attempts_left -= 1
        self.stats.retries += 1
        chosen = self._choose(self._loads)
        if not 0 <= chosen < len(kernels):
            raise misrouted(self._policy, chosen, len(kernels))
        if self.health[chosen].up:
            kernels[chosen].submit(track.ordinal, track.row, now)
            track.live += 1
        else:
            self.stats.blackholed_dispatches += 1
        if self._hedge:
            second = _healthy_least_loaded(self._loads, self.health, exclude=chosen)
            if second >= 0:
                kernels[second].submit(track.ordinal, track.row, now)
                self.stats.hedged_dispatches += 1
                track.live += 1
        if track.live == 0:
            self._retry_or_fail(track, now)

    def _retry_or_fail(self, track: _FaultTrack, now: float) -> None:
        """Schedule the retry a lost attempt earns, or fail the query."""
        if track.attempts_left > 0:
            heapq.heappush(
                self._retries,
                (now + self._detect_delay, next(self._retry_seq), track.ordinal),
            )
        else:
            track.done = True
            self.stats.failed_queries += 1
            del self.tracked[track.ordinal]


# --------------------------------------------------------------------------- #
# The cluster simulator
# --------------------------------------------------------------------------- #

_LATENCY_STATS_MODES = ("exact", "sketch")


class ClusterSimulator:
    """Event-driven simulator for a fleet of inference servers.

    All servers share one event heap and one clock
    (:class:`~repro.serving.simulator.EventLoop`); the balancer routes
    each query at its arrival instant using the kernels' live
    outstanding-work counters, so balancing decisions see exactly the state
    a real balancer would.  With a single server every policy degenerates to
    pass-through and the run is event-for-event identical to
    :class:`ServingSimulator`.

    ``latency_stats`` is the one place the statistics tier is chosen:
    ``"exact"`` (default) retains every measured latency, bit-identical
    statistics and memory linear in the trace; ``"sketch"`` streams them
    into fixed-space quantile sketches
    (:class:`~repro.utils.sketch.QuantileSketch`), with percentiles within
    the sketch's rank-error bound, ``latencies_s`` left empty, and peak
    memory O(1) in the trace for a one-shot :meth:`run_stream`.  Sketch
    mode retains nothing, so it rejects every consumer that must retain:
    per-server latency lists, fault plans and the open-ended
    :meth:`stream`.
    """

    def __init__(
        self,
        servers: Sequence[ClusterServer],
        balancer: Union[str, LoadBalancer] = "least-outstanding",
        warmup_fraction: Optional[float] = None,
        balancer_seed: int = 0,
        collect_per_server_latencies: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        latency_stats: str = "exact",
    ) -> None:
        if not servers:
            raise ValueError("a cluster needs at least one server")
        self._servers = [
            ClusterServer(
                engines=server.engines,
                config=server.config,
                name=server.name or f"server-{index}",
            )
            for index, server in enumerate(servers)
        ]
        # Validate every server's configuration up front (core counts,
        # offload thresholds) so a bad fleet fails fast, not mid-run.
        self._cores = [
            resolve_num_cores(server.engines, server.config) for server in self._servers
        ]
        self._balancer = get_balancer(balancer, seed=balancer_seed)
        if warmup_fraction is not None and not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self._warmup_fraction = (
            warmup_fraction
            if warmup_fraction is not None
            else self._servers[0].config.warmup_fraction
        )
        self._collect_per_server = collect_per_server_latencies
        # An empty plan is the "no faults" sentinel: the event loop then runs
        # without a fault source, so zero-plan results are bit-identical to
        # a simulator built without fault arguments.
        if fault_plan is not None and fault_plan.is_empty():
            fault_plan = None
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy or RetryPolicy()
        if latency_stats not in _LATENCY_STATS_MODES:
            raise ValueError(
                f"latency_stats must be one of {_LATENCY_STATS_MODES}, "
                f"got {latency_stats!r}"
            )
        self._latency_stats = latency_stats
        if latency_stats == "sketch":
            # Sketch mode trades retained samples for fixed space; both of
            # these consumers exist to *retain* per-sample data, so the
            # combination is a contradiction, rejected up front.
            if collect_per_server_latencies:
                raise ValueError(
                    "latency_stats='sketch' does not retain samples; "
                    "collect_per_server_latencies requires the exact mode"
                )
            if self._fault_plan is not None:
                raise ValueError(
                    "latency_stats='sketch' is not supported with a fault "
                    "plan: faulted runs are figure-sized and their SLA "
                    "verdict folds failed queries back into the retained "
                    "samples (ClusterSimulationResult.meets_sla)"
                )

    @property
    def servers(self) -> List[ClusterServer]:
        """The fleet's server descriptions."""
        return list(self._servers)

    @property
    def num_servers(self) -> int:
        """Fleet size."""
        return len(self._servers)

    @property
    def policy(self) -> str:
        """Name of the active balancing policy."""
        return self._balancer.name or type(self._balancer).__name__

    @property
    def latency_stats(self) -> str:
        """``"exact"`` (default, retains samples) or ``"sketch"`` (fixed space)."""
        return self._latency_stats

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The injected fault plan, or ``None`` (empty plans normalise to None)."""
        return self._fault_plan

    @property
    def retry_policy(self) -> RetryPolicy:
        """What happens to queries caught on a crashed node."""
        return self._retry_policy

    # ------------------------------------------------------------------ #

    def run(
        self,
        queries: Sequence[Query],
        reject_above_sla_s: Optional[float] = None,
    ) -> Union[ClusterSimulationResult, CertainRejection]:
        """Serve ``queries`` across the fleet and return fleet measurements.

        ``queries`` are sorted by arrival time and streamed through the
        event loop.  ``reject_above_sla_s`` arms the exact early-rejection
        exit shared with :class:`~repro.serving.simulator.ServingSimulator`:
        the run stops with a
        :class:`~repro.serving.simulator.CertainRejection` once the full
        run's p95 provably exceeds the target, and always completes
        (bit-identically) otherwise.  Capacity searches use it to cut short
        overloaded probe evaluations whose results are discarded anyway.

        With a non-empty :class:`~repro.faults.FaultPlan`, a
        :class:`FaultInjector` joins the loop as an event source: servers
        crash (losing in-flight work, handled per the
        :class:`~repro.faults.RetryPolicy`), recover, and straggle mid-trace,
        and the result carries a :class:`~repro.faults.FaultStats`.  Fault
        transitions after the run has drained (no arrival, completion or
        retry left) are not applied.  Without a plan the loop runs with no
        fault source at all (``tests/test_faults.py``).
        """
        ordered = arrival_rows(queries)
        return self._simulate(ordered, len(ordered), reject_above_sla_s)

    def run_stream(
        self,
        queries: Union[QueryStream, Iterable[Query]],
        num_queries: int,
        reject_above_sla_s: Optional[float] = None,
    ) -> Union[ClusterSimulationResult, CertainRejection]:
        """Serve a streamed query iterable without materialising the trace.

        The constant-memory companion to :meth:`run` for million-query
        traces: ``queries`` is consumed one arrival ahead of the event
        clock, so at any instant the simulator holds only the in-flight
        queries — pair it with the chunked synthesis streams
        (:func:`repro.queries.trace.iter_diurnal_trace`) and
        ``latency_stats="sketch"`` and peak memory is O(1) in the trace
        length.  A :class:`~repro.queries.query.QueryStream` is read as
        rows, so no per-query record is built; any other iterable of
        :class:`Query` is converted one row at a time.  In exchange the
        stream must satisfy what :meth:`run` normalises for itself:

        * arrivals come **pre-sorted** by arrival time (the generator
          paths already emit them sorted);
        * ``num_queries`` states the stream's exact length up front (the
          warmup count and the early-rejection certificate need the total
          before the stream ends); a mismatch raises at the end.

        Query ids are free, duplicates included: the loop keys in-flight
        state by arrival ordinal and the warmup window is the first
        ``num_queries * warmup_fraction`` arrivals consumed, so a stream
        gives the same result as :meth:`run` on the same queries.  Fault
        plans are not supported — faulted runs retain samples for their SLA
        verdict and are figure-sized; use :meth:`run`.
        ``reject_above_sla_s`` arms the same exact early exit as :meth:`run`.
        """
        if self._fault_plan is not None:
            raise ValueError(
                "run_stream does not support fault injection; use run()"
            )
        check_positive("num_queries", num_queries)
        rows = (
            queries.rows() if isinstance(queries, QueryStream) else map(query_row, queries)
        )
        return self._simulate(rows, num_queries, reject_above_sla_s)

    def stream(self) -> EventLoop:
        """An open-ended run to feed in time-sorted batches, without faults.

        Returns an :class:`~repro.serving.simulator.EventLoop` with no
        stated length: ``feed`` each batch of rows (each sorted by arrival
        time and no earlier than the last, e.g. from
        :func:`~repro.queries.query.arrival_rows`), ``fork().finish()`` for the
        :class:`ClusterSimulationResult` of everything fed so far — equal
        field for field to :meth:`run` over those queries — or
        ``fork().finish_sla()`` for only its SLA fields, and keep feeding
        the original.  The stream owns a copy of the balancer,
        prepared and reset once, so :meth:`run` calls in between do not
        disturb it.  Fault plans, per-server latency lists and sketch mode
        are not supported: the loop retains every measured latency with its
        arrival ordinal, because the warmup cut moves as arrivals are fed.
        """
        if self._fault_plan is not None:
            raise ValueError("stream does not support fault injection; use run()")
        if self._latency_stats == "sketch":
            raise ValueError(
                "stream does not support latency_stats='sketch': an open-ended "
                "run retains every latency; use run_stream()"
            )
        if self._collect_per_server:
            raise ValueError(
                "stream does not collect per-server latencies; use run()"
            )
        kernels = self._build_kernels()
        balancer = copy.deepcopy(self._balancer)
        balancer.prepare(self._servers)
        balancer.reset(len(kernels))
        return EventLoop(
            kernels,
            self._warmup_fraction,
            choose=balancer.choose,
            policy=self.policy,
            summarize=self._summarize,
        )

    def _build_kernels(self) -> List[ServerKernel]:
        return build_kernels(
            [
                (server.engines, server.config, cores)
                for server, cores in zip(self._servers, self._cores)
            ]
        )

    def _simulate(
        self,
        arrivals: Iterable[Row],
        num_queries: int,
        reject_above_sla_s: Optional[float],
    ) -> Union[ClusterSimulationResult, CertainRejection]:
        kernels = self._build_kernels()
        balancer = self._balancer
        balancer.prepare(self._servers)
        balancer.reset(len(kernels))
        faults = (
            FaultInjector(
                self._fault_plan, self._retry_policy, kernels, balancer, self.policy
            )
            if self._fault_plan is not None
            else None
        )
        per_server_latencies: Optional[List[List[float]]] = (
            [[] for _ in kernels] if self._collect_per_server else None
        )
        outcome = run_event_loop(
            kernels,
            arrivals,
            num_queries,
            self._warmup_fraction,
            choose=balancer.choose,
            policy=self.policy,
            latency_stats=self._latency_stats,
            per_server=per_server_latencies,
            reject_above_sla_s=reject_above_sla_s,
            faults=faults,
        )
        if not isinstance(outcome, dict):
            return outcome
        return self._summarize(kernels, outcome, per_server_latencies, faults)

    def _summarize(
        self,
        kernels: Sequence[ServerKernel],
        outcome: Dict[str, Any],
        per_server_latencies: Optional[List[List[float]]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> ClusterSimulationResult:
        """The fleet result of a finished event loop over ``kernels``."""
        duration = outcome["duration_s"]
        total_core_busy = sum(kernel.cpu_busy_time for kernel in kernels)
        total_cores = sum(kernel.num_cores for kernel in kernels)
        return ClusterSimulationResult(
            policy=self.policy,
            num_servers=len(kernels),
            fleet_cpu_utilization=min(1.0, total_core_busy / (total_cores * duration)),
            per_server=[
                summarize_server(kernel, server.name, duration, outcome["num_queries"])
                for server, kernel in zip(self._servers, kernels)
            ],
            per_server_latencies=per_server_latencies,
            fault_stats=faults.stats if faults is not None else None,
            **outcome,
        )


# --------------------------------------------------------------------------- #
# Fleet capacity
# --------------------------------------------------------------------------- #


def estimate_upper_bound_qps(
    engines: EnginePair,
    config: ServingConfig,
    mean_query_size: float,
    large_query_fraction: float = 0.0,
    mean_large_query_size: float = 0.0,
) -> float:
    """Optimistic throughput bound used to bracket the bisection search.

    The CPU bound assumes all cores stay busy at the configured batch size;
    the accelerator bound (when offloading is enabled) assumes it continuously
    processes queries of the average offloaded size.
    """
    check_positive("mean_query_size", mean_query_size)
    cores = config.num_cores if config.num_cores else engines.cpu.platform.num_cores
    batch = config.batch_size
    core_items_per_s = batch / engines.cpu.request_latency_s(batch, cores)
    cpu_items_per_s = cores * core_items_per_s

    gpu_items_per_s = 0.0
    if (
        config.offload_threshold is not None
        and engines.has_accelerator
        and large_query_fraction > 0.0
        and mean_large_query_size > 0.0
    ):
        gpu_items_per_s = mean_large_query_size / engines.gpu.query_latency_s(
            int(mean_large_query_size)
        )

    total_items_per_s = cpu_items_per_s + gpu_items_per_s
    return total_items_per_s / mean_query_size


def offload_size_stats(
    sizes: QuerySizeDistribution, threshold: Optional[int]
) -> tuple:
    """(fraction, mean size) of queries above an offload threshold.

    Returns ``(0.0, 0.0)`` when offloading is disabled.  Used to feed the
    accelerator term of :func:`estimate_upper_bound_qps`.
    """
    if threshold is None:
        return 0.0, 0.0
    samples = sizes.sample(4000, rng=11)
    above = samples[samples > threshold]
    large_fraction = len(above) / len(samples)
    mean_large = float(above.mean()) if len(above) else 0.0
    return large_fraction, mean_large


def estimate_fleet_upper_bound_qps(
    servers: Sequence[ClusterServer], load_generator: LoadGenerator
) -> float:
    """Optimistic fleet throughput bound: the sum of per-server bounds."""
    if not servers:
        raise ValueError("a cluster needs at least one server")
    sizes = load_generator.sizes
    mean_size = sizes.mean()
    total = 0.0
    for server in servers:
        large_fraction, mean_large = offload_size_stats(
            sizes, server.config.offload_threshold
        )
        total += estimate_upper_bound_qps(
            server.engines, server.config, mean_size, large_fraction, mean_large
        )
    return total


def warm_latency_tables(
    servers: Sequence[ClusterServer], max_query_size: Optional[int] = None
) -> None:
    """Pre-fill the engines' latency-table columns every kernel will index.

    Called before forking capacity-search workers so the (possibly shared)
    engines carry fully built tables into the child processes instead of
    each worker rebuilding them lazily.  ``max_query_size`` (e.g. the size
    distribution's ``max_size``) additionally warms the GPU query-size
    column of accelerator-attached servers that offload.
    """
    for server in servers:
        cores = resolve_num_cores(server.engines, server.config)
        cpu_table = server.engines.cpu.latency_table
        for active_cores in range(1, cores + 1):
            cpu_table.column(server.config.batch_size, active_cores)
        if (
            max_query_size
            and server.engines.gpu is not None
            and server.config.offload_threshold is not None
        ):
            server.engines.gpu.latency_table.totals(max_query_size)
