"""Deterministic fault plans: crash/recovery intervals and straggler episodes.

A :class:`FaultPlan` describes, per fleet node, when the node is *down*
(crashed: accepts no work, and any in-flight work is lost) and when it is
*straggling* (alive but with service times multiplied by a ``slowdown``
factor).  Plans are plain data — either authored explicitly or derived from
a seed via :meth:`FaultPlan.generate`, which draws per-node Poisson
processes through :class:`~repro.utils.rng.RngFactory` children so the same
seed always yields the same plan regardless of process or iteration order.

The simulator consumes a plan as a flat, time-sorted list of
:class:`FaultEvent` transitions (:meth:`FaultPlan.events`); ties at one
instant resolve in a fixed kind order (recoveries before crashes) so replays
are bit-identical.  :class:`RetryPolicy` configures what happens to queries
caught on a crashed node — fail them, or re-dispatch with a bounded retry
budget and optional hedged duplicates.  :class:`NodeHealth` is the mutable
per-node view the simulator maintains and failure-aware balancers read, and
:class:`FaultStats` is the tally a faulted run reports.

>>> plan = FaultPlan.generate(
...     num_servers=3, horizon_s=50.0,
...     crash_rate_hz=0.05, mean_downtime_s=4.0, seed=7)
>>> plan == FaultPlan.generate(
...     num_servers=3, horizon_s=50.0,
...     crash_rate_hz=0.05, mean_downtime_s=4.0, seed=7)
True
>>> plan.is_empty()
False
>>> FaultPlan().is_empty()
True
>>> FaultPlan.from_dict(plan.to_dict()) == plan
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.utils.rng import RngFactory
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "CrashWindow",
    "StragglerEpisode",
    "NodeFaultSchedule",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "NodeHealth",
    "FaultStats",
]


def _check_interval(label: str, start_s: float, end_s: float) -> None:
    check_non_negative(f"{label}.start_s", start_s)
    if end_s <= start_s:
        raise ValueError(
            f"{label} must end after it starts, got [{start_s}, {end_s})"
        )


def _check_disjoint(
    label: str, intervals: Sequence[Union[CrashWindow, StragglerEpisode]]
) -> None:
    for earlier, later in zip(intervals, intervals[1:]):
        if later.start_s < earlier.end_s:
            raise ValueError(
                f"{label} intervals overlap: [{earlier.start_s}, {earlier.end_s}) "
                f"and [{later.start_s}, {later.end_s})"
            )


@dataclass(frozen=True)
class CrashWindow:
    """One ``[start_s, end_s)`` interval during which a node is down.

    The node crashes at ``start_s`` (in-flight work lost) and recovers —
    empty, accepting traffic again — at ``end_s``.
    """

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_interval("CrashWindow", self.start_s, self.end_s)


@dataclass(frozen=True)
class StragglerEpisode:
    """One interval during which a node's service times are multiplied.

    ``slowdown`` must be ≥ 1: stragglers only ever get slower.  Episodes may
    overlap a crash window (the slowdown simply has nothing to act on while
    the node is down).
    """

    start_s: float
    end_s: float
    slowdown: float

    def __post_init__(self) -> None:
        _check_interval("StragglerEpisode", self.start_s, self.end_s)
        if self.slowdown < 1.0:
            raise ValueError(
                f"StragglerEpisode.slowdown must be >= 1, got {self.slowdown}"
            )


@dataclass(frozen=True)
class NodeFaultSchedule:
    """All faults for one node: disjoint crash windows + straggler episodes."""

    crashes: Tuple[CrashWindow, ...] = ()
    stragglers: Tuple[StragglerEpisode, ...] = ()

    def __post_init__(self) -> None:
        ordered_crashes = tuple(
            sorted(self.crashes, key=lambda w: (w.start_s, w.end_s))
        )
        ordered_stragglers = tuple(
            sorted(self.stragglers, key=lambda e: (e.start_s, e.end_s))
        )
        _check_disjoint("crash", ordered_crashes)
        _check_disjoint("straggler", ordered_stragglers)
        object.__setattr__(self, "crashes", ordered_crashes)
        object.__setattr__(self, "stragglers", ordered_stragglers)

    @property
    def empty(self) -> bool:
        """True when the node has no faults at all."""
        return not self.crashes and not self.stragglers


#: Transition kinds, in tie-break order at one instant: a node finishing a
#: straggler episode or recovering is processed before a node crashing or
#: starting to straggle at the same time, so back-to-back intervals behave
#: as the half-open ``[start, end)`` semantics promise.
KIND_SLOW_OFF = "slow-off"
KIND_RECOVER = "recover"
KIND_SLOW_ON = "slow-on"
KIND_CRASH = "crash"
_KIND_RANK = {KIND_SLOW_OFF: 0, KIND_RECOVER: 1, KIND_SLOW_ON: 2, KIND_CRASH: 3}


@dataclass(frozen=True)
class FaultEvent:
    """One node state transition, as the simulator consumes it."""

    time_s: float
    node: int
    kind: str
    slowdown: float = 1.0

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time_s, _KIND_RANK[self.kind], self.node)


@dataclass(frozen=True)
class FaultPlan:
    """Per-node fault schedules for a fleet, keyed by server index.

    An empty plan (``FaultPlan()`` or every schedule empty) is the "no
    faults" sentinel: the simulator's event loop then runs without a fault
    source, bit-identically to a run given no plan at all.
    """

    nodes: Mapping[int, NodeFaultSchedule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalised: Dict[int, NodeFaultSchedule] = {}
        for node, schedule in self.nodes.items():
            index = int(node)
            check_non_negative("node index", index)
            if not schedule.empty:
                normalised[index] = schedule
        object.__setattr__(self, "nodes", normalised)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return dict(self.nodes) == dict(other.nodes)

    def __hash__(self) -> int:
        # Process-stable: the tuple reaches hash() as int node indices and
        # frozen dataclasses of floats/tuples-of-floats.  CPython only salts
        # str/bytes hashing with PYTHONHASHSEED, so no string may ever enter
        # this structure (enforced by test_faults.py::TestFaultPlanHash).
        return hash(  # reprolint: disable=RL001 -- int/float-only tuple; unsalted across processes
            tuple(sorted(self.nodes.items(), key=lambda kv: kv[0]))
        )

    # ------------------------------------------------------------------ #

    def is_empty(self) -> bool:
        """True when no node has any crash or straggler scheduled."""
        return not self.nodes

    def events(self, num_servers: int) -> List[FaultEvent]:
        """The plan flattened to time-sorted transitions for a fleet.

        Schedules for node indices at or beyond ``num_servers`` are ignored,
        so one plan can be evaluated against fleets of different sizes.
        """
        out: List[FaultEvent] = []
        for node in sorted(self.nodes):
            if node >= num_servers:
                continue
            schedule = self.nodes[node]
            for window in schedule.crashes:
                out.append(FaultEvent(window.start_s, node, KIND_CRASH))
                out.append(FaultEvent(window.end_s, node, KIND_RECOVER))
            for episode in schedule.stragglers:
                out.append(
                    FaultEvent(
                        episode.start_s, node, KIND_SLOW_ON, episode.slowdown
                    )
                )
                out.append(FaultEvent(episode.end_s, node, KIND_SLOW_OFF))
        out.sort(key=FaultEvent.sort_key)
        return out

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (stable across equal plans)."""
        return {
            "nodes": {
                str(node): {
                    "crashes": [
                        [window.start_s, window.end_s]
                        for window in self.nodes[node].crashes
                    ],
                    "stragglers": [
                        [episode.start_s, episode.end_s, episode.slowdown]
                        for episode in self.nodes[node].stragglers
                    ],
                }
                for node in sorted(self.nodes)
            }
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        nodes: Dict[int, NodeFaultSchedule] = {}
        for node, schedule in payload.get("nodes", {}).items():
            nodes[int(node)] = NodeFaultSchedule(
                crashes=tuple(
                    CrashWindow(float(start), float(end))
                    for start, end in schedule.get("crashes", ())
                ),
                stragglers=tuple(
                    StragglerEpisode(float(start), float(end), float(slow))
                    for start, end, slow in schedule.get("stragglers", ())
                ),
            )
        return cls(nodes=nodes)

    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        num_servers: int,
        horizon_s: float,
        *,
        crash_rate_hz: float = 0.0,
        mean_downtime_s: float = 2.0,
        straggler_rate_hz: float = 0.0,
        mean_straggler_s: float = 2.0,
        straggler_slowdown: float = 3.0,
        seed: int = 0,
    ) -> "FaultPlan":
        """Draw a seeded plan: independent Poisson faults per node.

        Each node's crash and straggler streams come from their own
        :meth:`RngFactory.child <repro.utils.rng.RngFactory.child>` streams
        (``fault/node-i/crash`` and ``fault/node-i/straggle``), so the plan
        is a pure function of ``(seed, num_servers, rates, horizon)`` —
        independent of iteration order, process, or which other knobs are
        enabled.  Intervals are non-overlapping by construction (the next
        fault is drawn from the end of the previous one) and an interval may
        extend past ``horizon_s`` (the node simply never recovers on-trace).
        """
        check_positive("num_servers", num_servers)
        check_positive("horizon_s", horizon_s)
        check_non_negative("crash_rate_hz", crash_rate_hz)
        check_non_negative("straggler_rate_hz", straggler_rate_hz)
        if crash_rate_hz:
            check_positive("mean_downtime_s", mean_downtime_s)
        if straggler_rate_hz:
            check_positive("mean_straggler_s", mean_straggler_s)
            if straggler_slowdown < 1.0:
                raise ValueError(
                    f"straggler_slowdown must be >= 1, got {straggler_slowdown}"
                )
        factory = RngFactory(seed)
        nodes: Dict[int, NodeFaultSchedule] = {}
        for node in range(num_servers):
            crashes: List[CrashWindow] = []
            if crash_rate_hz > 0.0:
                rng = factory.child(f"fault/node-{node}/crash")
                now = float(rng.exponential(1.0 / crash_rate_hz))
                while now < horizon_s:
                    downtime = float(rng.exponential(mean_downtime_s))
                    crashes.append(CrashWindow(now, now + downtime))
                    now += downtime + float(rng.exponential(1.0 / crash_rate_hz))
            stragglers: List[StragglerEpisode] = []
            if straggler_rate_hz > 0.0:
                rng = factory.child(f"fault/node-{node}/straggle")
                now = float(rng.exponential(1.0 / straggler_rate_hz))
                while now < horizon_s:
                    length = float(rng.exponential(mean_straggler_s))
                    stragglers.append(
                        StragglerEpisode(now, now + length, straggler_slowdown)
                    )
                    now += length + float(
                        rng.exponential(1.0 / straggler_rate_hz)
                    )
            schedule = NodeFaultSchedule(tuple(crashes), tuple(stragglers))
            if not schedule.empty:
                nodes[node] = schedule
        return cls(nodes=nodes)

    def scaled(self, factor: float) -> "FaultPlan":
        """A copy with every interval's times multiplied by ``factor``."""
        check_positive("factor", factor)
        return FaultPlan(
            nodes={
                node: NodeFaultSchedule(
                    crashes=tuple(
                        CrashWindow(w.start_s * factor, w.end_s * factor)
                        for w in schedule.crashes
                    ),
                    stragglers=tuple(
                        replace(
                            e,
                            start_s=e.start_s * factor,
                            end_s=e.end_s * factor,
                        )
                        for e in schedule.stragglers
                    ),
                )
                for node, schedule in self.nodes.items()
            }
        )


# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """What happens to a query caught on (or sent to) a crashed node.

    ``max_retries`` is the per-query budget of *re-dispatches*: 0 means
    naive — a query lost to a crash simply fails.  ``detect_delay_s`` models
    the time for the client/balancer to notice the loss before re-issuing;
    a dispatch to an already-down node is black-holed for the same delay.
    With ``hedge`` enabled, every re-dispatch issues a duplicate attempt to
    a second (healthy, distinct) node and the first completion wins.
    """

    max_retries: int = 0
    hedge: bool = False
    detect_delay_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_non_negative("detect_delay_s", self.detect_delay_s)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (folded into capacity signatures)."""
        return {
            "max_retries": self.max_retries,
            "hedge": self.hedge,
            "detect_delay_s": self.detect_delay_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`."""
        return cls(
            max_retries=int(payload.get("max_retries", 0)),
            hedge=bool(payload.get("hedge", False)),
            detect_delay_s=float(payload.get("detect_delay_s", 0.005)),
        )


@dataclass
class NodeHealth:
    """One node's live state as the simulator maintains it mid-run.

    Mutable on purpose: the simulator updates the shared list in place on
    every fault transition and calls
    :meth:`LoadBalancer.observe_health <repro.serving.cluster.LoadBalancer.observe_health>`,
    so failure-aware balancers always route on the current view.
    """

    up: bool = True
    slowdown: float = 1.0


@dataclass
class FaultStats:
    """Tally of everything fault injection did to one simulated run."""

    crashes: int = 0
    recoveries: int = 0
    crash_killed_in_flight: int = 0
    blackholed_dispatches: int = 0
    retries: int = 0
    hedged_dispatches: int = 0
    failed_queries: int = 0
