"""Discrete-event simulation of an at-scale recommendation inference server.

One simulated server consists of ``num_cores`` CPU worker cores sharing a FIFO
request queue, plus an optional accelerator with its own FIFO query queue.
Incoming queries are handled exactly the way DeepRecSched schedules them
(Fig. 8):

* if an accelerator is attached and the query's size exceeds the configured
  *query-size threshold*, the whole query is placed on the accelerator queue;
* otherwise the query is split into requests of at most *batch_size* items,
  which are executed by parallel CPU cores.

A query completes when all of its requests (or its accelerator execution)
finish; its latency is measured from arrival to last completion.  The
simulator reports tail latency percentiles, achieved throughput, device
utilisation, and the fraction of work processed by the accelerator — the
quantities the paper's evaluation figures are built from.

The event mechanics of a single server live in :class:`ServerKernel`, a
steppable object that owns the server's queues and accounting but not the
event heap or the clock.  :class:`EventLoop` is the one discrete-event loop
that drives a set of kernels from a shared heap, resumably: it can be fed
arrivals in sorted batches, forked, and finished.  :func:`run_event_loop`
feeds it a whole stream and finishes it; :class:`ServingSimulator` runs
that with one kernel and :class:`~repro.serving.cluster.ClusterSimulator`
with a fleet (and, when a fault plan is set, a fault source), which is what
makes a cluster with one server bit-identical to the single-server
simulator.  ``ClusterSimulator.stream`` keeps an open-ended loop, which the
digital twin feeds one window at a time.
"""

from __future__ import annotations

import copy
import gc
import heapq
import itertools
import math
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.execution.engine import EnginePair
from repro.queries.query import Query, Row, arrival_rows
from repro.utils.stats import PercentileTracker, percentile_of_sorted
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.serving.cluster import FaultInjector


@dataclass(frozen=True)
class ServingConfig:
    """Scheduling configuration of one simulated server.

    Attributes
    ----------
    batch_size:
        Maximum items per CPU request (DeepRecSched knob #1).
    num_cores:
        CPU worker cores; 0 means "all cores of the platform".
    offload_threshold:
        Query-size threshold above which whole queries are offloaded to the
        accelerator (DeepRecSched knob #2).  ``None`` disables offloading even
        if an accelerator engine is attached.
    warmup_fraction:
        Fraction of queries (by arrival order) excluded from latency
        statistics to remove the queue ramp-up transient.
    """

    batch_size: int
    num_cores: int = 0
    offload_threshold: Optional[int] = None
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_positive("batch_size", self.batch_size)
        if self.num_cores < 0:
            raise ValueError(f"num_cores must be >= 0, got {self.num_cores}")
        if self.offload_threshold is not None:
            check_positive("offload_threshold", self.offload_threshold)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )


def resolve_num_cores(engines: EnginePair, config: ServingConfig) -> int:
    """Worker-core count for ``config`` on ``engines``, validated against the platform."""
    platform_cores = engines.cpu.platform.num_cores
    cores = config.num_cores if config.num_cores else platform_cores
    if cores > platform_cores:
        raise ValueError(
            f"num_cores={cores} exceeds platform core count {platform_cores}"
        )
    if config.offload_threshold is not None and not engines.has_accelerator:
        raise ValueError(
            "offload_threshold set but the engine pair has no accelerator"
        )
    return cores


class SLACriteriaMixin:
    """SLA and stability checks shared by single-server and fleet results.

    Both result types and :class:`SLAReading` expose ``p95_latency_s``,
    ``p95_late_window_s``, ``drain_s``, and ``arrival_span_s``; keeping the
    acceptance criterion in one place guarantees the single-server and
    cluster capacity searches, and the digital twin's verdicts, judge runs
    by exactly the same rule.
    """

    __slots__ = ()

    p95_latency_s: float
    p95_late_window_s: float
    drain_s: float
    arrival_span_s: float

    def meets_sla(self, sla_latency_s: float) -> bool:
        """True when the measured p95 is within the target."""
        return self.p95_latency_s <= sla_latency_s

    def is_stable(self, sla_latency_s: float) -> bool:
        """True when the run shows no sign of an unbounded backlog.

        Two symptoms of an overloaded (unstable) configuration are checked:
        the tail latency of the *late* half of the run (a growing queue makes
        later queries strictly worse), and the time needed to drain the
        backlog after the last arrival.
        """
        drain_budget = max(2.0 * sla_latency_s, 0.25 * self.arrival_span_s)
        return (
            self.p95_late_window_s <= sla_latency_s and self.drain_s <= drain_budget
        )

    def acceptable(self, sla_latency_s: float) -> bool:
        """SLA met *and* the system is stable — the capacity-search criterion."""
        return self.meets_sla(sla_latency_s) and self.is_stable(sla_latency_s)


class SLAReading(SLACriteriaMixin):
    """Only what the SLA checks read, from :meth:`EventLoop.finish_sla`."""

    __slots__ = ("p95_latency_s", "p95_late_window_s", "drain_s", "arrival_span_s")

    def __init__(
        self,
        p95_latency_s: float,
        p95_late_window_s: float,
        drain_s: float,
        arrival_span_s: float,
    ) -> None:
        self.p95_latency_s = p95_latency_s
        self.p95_late_window_s = p95_late_window_s
        self.drain_s = drain_s
        self.arrival_span_s = arrival_span_s


@dataclass
class SimulationResult(SLACriteriaMixin):
    """Measurements from one simulated serving run."""

    config: ServingConfig
    num_queries: int
    measured_queries: int
    duration_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    achieved_qps: float
    offered_qps: float
    cpu_utilization: float
    gpu_utilization: float
    gpu_work_fraction: float
    p95_late_window_s: float = 0.0
    drain_s: float = 0.0
    arrival_span_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class CertainRejection:
    """Early-exit outcome of a run whose SLA rejection became certain mid-run.

    Returned (instead of a full result) when a simulation is given a
    ``reject_above_sla_s`` target and enough measured latencies have already
    exceeded it that the *complete* run's p95 would exceed it no matter how
    the remaining queries fare (see :func:`certain_rejection_threshold`).
    The verdict is exact — ``acceptable`` is False precisely when the full
    run's would be — but the aggregate statistics of the full run were never
    computed, so this object carries only the evidence.  Capacity searches
    use it for rejected probe evaluations, whose result objects are
    discarded; any evaluation that meets the SLA always runs to completion
    and returns the ordinary full result.
    """

    sla_latency_s: float
    measured_queries: int
    over_sla_queries: int

    def meets_sla(self, sla_latency_s: float) -> bool:
        """False: the full run's p95 provably exceeds the rejection target."""
        return False

    def is_stable(self, sla_latency_s: float) -> bool:
        """False: stability was not measured, and the run is rejected anyway."""
        return False

    def acceptable(self, sla_latency_s: float) -> bool:
        """False, exactly as the completed run's ``acceptable`` would be."""
        return False


# Nothing returns this stub: perfbench/tracing.py still checks isinstance
# against it, so it goes with the benchmark-only change of ROADMAP item 5.
class CertainAcceptance:
    """Retired early-acceptance certificate, never produced."""


def certain_rejection_threshold(measured_total: int) -> int:
    """Over-SLA measurements after which p95 > SLA holds for the full run.

    With ``n`` measured latencies, the linear-interpolation p95 (numpy's
    default, used by :class:`~repro.utils.stats.PercentileTracker`) sits at
    virtual index ``0.95 * (n - 1)``: writing ``f = floor(0.95 * (n - 1))``,
    the interpolated value is ``x[f] + frac * (x[f+1] - x[f]) >= x[f]`` on
    the sorted samples.  Once at least ``n - f`` samples exceed the target,
    at most ``f`` samples can be within it, so ``x[f]`` — and therefore the
    p95 — exceeds the target regardless of every not-yet-measured latency.
    Measured-so-far counts only grow, which makes ``n - f`` an exact early
    rejection threshold, not a heuristic.  (The float product mirrors
    numpy's own virtual-index arithmetic bit for bit.)
    """
    if measured_total <= 0:
        return 1
    return measured_total - math.floor((measured_total - 1) * 0.95)


# Event kinds, ordered so that completions at time t are processed before
# arrivals at the same instant (frees cores first).
EVT_CPU_DONE = 0
EVT_GPU_DONE = 1
EVT_ARRIVAL = 2

_INFINITY = float("inf")

#: Measured latencies per bulk flush into a sketch-mode tracker: large
#: enough that the per-flush numpy conversion amortises, small enough that
#: the in-flight chunk never dominates peak memory.
_SKETCH_CHUNK = 32768

@contextmanager
def pause_gc() -> Iterator[None]:
    """Disable generational GC for the duration of an event loop.

    The loops allocate hundreds of thousands of short-lived event tuples and
    create no reference cycles, so generation-0 collections triggered mid-run
    are pure overhead.  The collector is restored (and never force-run) on
    exit, including on exceptions.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _QueryState:
    """Bookkeeping for a query split into several CPU requests (hot-path object).

    Queries that produce a single unit of work (one CPU request, or a whole
    query offloaded to the accelerator) skip this object entirely — the
    kernel stores the bare row in its state map instead.
    """

    __slots__ = ("row", "outstanding_requests")

    def __init__(self, row: Row, outstanding_requests: int) -> None:
        self.row = row
        self.outstanding_requests = outstanding_requests


class ServerKernel:
    """Steppable event mechanics of one simulated server.

    The kernel owns the server-local state — CPU/accelerator FIFO queues,
    busy-core count, busy-time and work accounting — while the *owner* owns
    the event heap and the simulated clock (:class:`EventLoop`, which also
    handles each completion).  In-flight queries are keyed by the arrival
    ordinal the loop assigns, never by ``query_id``, so ids need not be
    unique.  Completion events are pushed straight onto the owner's heap as
    ``(time, kind, seq, server_index, ordinal)`` tuples; ``server_index``
    tags each event with the kernel it belongs to and the shared ``seq``
    counter keeps equal-time events deterministically ordered.

    The kernels of one fleet share a *load vector*: ``loads[server_index]``
    is this kernel's live count of outstanding items (queued or in flight),
    the one signal cluster load balancers choose over.

    Service times come from the engines' dense latency tables (bit-identical
    to the scalar engine calls), so the per-event cost is a list index rather
    than a trip through the Python latency model.
    """

    __slots__ = (
        "_cpu",
        "_gpu",
        "_config",
        "_num_cores",
        "_events",
        "_counter",
        "_server_index",
        "_batch_size",
        "_threshold",
        "_direct_limit",
        "_cpu_service",
        "_gpu_service",
        "_cpu_queue",
        "_gpu_queue",
        "_states",
        "_loads",
        "_busy_cores",
        "_gpu_busy",
        "_service_scale",
        "cpu_busy_time",
        "gpu_busy_time",
        "total_items",
        "gpu_items",
        "num_submitted",
    )

    def __init__(
        self,
        engines: EnginePair,
        config: ServingConfig,
        num_cores: int,
        events: List[tuple],
        counter: Iterator[int],
        loads: List[int],
        server_index: int = 0,
    ) -> None:
        self._cpu = engines.cpu
        self._gpu = engines.gpu
        self._config = config
        self._num_cores = num_cores
        self._events = events
        self._counter = counter
        self._server_index = server_index
        self._batch_size = config.batch_size
        self._threshold = (
            config.offload_threshold if engines.gpu is not None else None
        )
        # The largest query :meth:`submit` serves as one CPU request, never
        # offloaded: the event loop starts such arrivals itself.
        self._direct_limit = (
            config.batch_size
            if self._threshold is None
            else min(config.batch_size, self._threshold)
        )

        # Dense service-time lookups: _cpu_service[active_cores][batch].
        cpu_table = engines.cpu.latency_table
        self._cpu_service = [None] + [
            cpu_table.column(config.batch_size, cores)
            for cores in range(1, num_cores + 1)
        ]
        self._gpu_service = None if engines.gpu is None else engines.gpu.latency_table.total_s

        self._cpu_queue: deque = deque()  # FIFO of (ordinal, request_batch)
        self._gpu_queue: deque = deque()  # FIFO of ordinals
        # In flight, by arrival ordinal: the row, or a _QueryState if split.
        self._states: Dict[int, Union[Row, _QueryState]] = {}
        self._loads = loads
        self._busy_cores = 0
        self._gpu_busy = False
        # Straggler hook: every service time is multiplied by this factor.
        # The default 1.0 is exact under IEEE-754 (x * 1.0 == x), so a fleet
        # with the hook installed but no faults stays bit-identical.
        self._service_scale = 1.0

        self.cpu_busy_time = 0.0
        self.gpu_busy_time = 0.0
        self.total_items = 0
        self.gpu_items = 0
        self.num_submitted = 0

    @property
    def config(self) -> ServingConfig:
        """The scheduling configuration this kernel runs."""
        return self._config

    @property
    def num_cores(self) -> int:
        """Number of CPU worker cores simulated."""
        return self._num_cores

    @property
    def service_scale(self) -> float:
        """Multiplier applied to every service time (straggler injection).

        Scales only dispatches made while it is set — work already on a
        core/accelerator keeps its original completion time, exactly like a
        machine that slows down mid-request would not retroactively stretch
        finished cycles.
        """
        return self._service_scale

    @service_scale.setter
    def service_scale(self, scale: float) -> None:
        if scale <= 0.0:
            raise ValueError(f"service_scale must be > 0, got {scale}")
        self._service_scale = scale

    def fork(
        self, events: List[tuple], counter: Iterator[int], loads: List[int]
    ) -> "ServerKernel":
        """A copy of this kernel on another event heap and load vector.

        Queues, in-flight query state and accounting are copied; engines,
        configuration and service-time rows are shared (see
        :meth:`EventLoop.fork`).
        """
        clone = copy.copy(self)
        clone._events = events
        clone._counter = counter
        clone._loads = loads
        clone._cpu_queue = deque(self._cpu_queue)
        clone._gpu_queue = deque(self._gpu_queue)
        clone._states = {
            ordinal: (
                _QueryState(state.row, state.outstanding_requests)
                if type(state) is _QueryState
                else state
            )
            for ordinal, state in self._states.items()  # reprolint: disable=RL005 -- the copy keeps insertion (submission) order, which crash() returns
        }
        return clone

    def crash(self) -> List[Tuple[int, Row]]:
        """Fail the node: drop all queued and in-flight work.

        Returns the lost queries as ``(ordinal, row)`` pairs in submission
        order so the owner can fail or re-dispatch them per its retry
        policy.  Busy-time and item counters keep the work already admitted
        — burned cycles on a dead node are not refunded, matching
        fleet-utilisation accounting.  The node's completion events are
        purged from the shared heap; the survivors keep their ``(time,
        kind, seq)`` keys, a total order, so every other event still pops
        exactly when it would have.
        """
        states = self._states
        lost = [
            (ordinal, state.row if type(state) is _QueryState else state)
            for ordinal, state in states.items()  # reprolint: disable=RL005 -- insertion order is submission order, the documented return order
        ]
        states.clear()
        self._cpu_queue.clear()
        self._gpu_queue.clear()
        self._busy_cores = 0
        self._gpu_busy = False
        self._loads[self._server_index] = 0
        events = self._events
        events[:] = [event for event in events if event[3] != self._server_index]
        heapq.heapify(events)
        return lost

    def submit(self, ordinal: int, row: Row, now: float) -> None:
        """Accept query ``ordinal``: offload it whole or split it for the CPU.

        The general submission path: splits, offloads, and every dispatch
        of the fault path (retries, hedges, arrivals while a node is down).
        While every node is up, an arrival that fits one unoffloaded CPU
        request (at most ``_direct_limit`` items) is started, or queued, by
        :meth:`EventLoop._advance` itself, exactly as the single-request
        branch below does it.
        """
        size = row[2]
        self.num_submitted += 1
        self.total_items += size
        self._loads[self._server_index] += size
        threshold = self._threshold
        if threshold is not None and size > threshold:
            self._states[ordinal] = row
            self.gpu_items += size
            self._gpu_queue.append(ordinal)
            self._dispatch_gpu(now)
        elif size <= self._batch_size:
            # Single-request query (the common case): no split bookkeeping,
            # and when a core is free the request starts immediately without
            # touching the FIFO (a free core implies an empty queue).
            self._states[ordinal] = row
            busy = self._busy_cores
            if busy < self._num_cores:
                busy += 1
                service = self._cpu_service[busy][size] * self._service_scale
                self.cpu_busy_time += service
                self._busy_cores = busy
                heapq.heappush(
                    self._events,
                    (
                        now + service,
                        EVT_CPU_DONE,
                        next(self._counter),
                        self._server_index,
                        ordinal,
                    ),
                )
            else:
                self._cpu_queue.append((ordinal, size))
        else:
            # Inline query splitting: full batches first, remainder last —
            # the exact request order split_query produces, without the
            # per-request object allocations.
            batch = self._batch_size
            full, remainder = divmod(size, batch)
            queue = self._cpu_queue
            queue.extend(itertools.repeat((ordinal, batch), full))
            if remainder:
                queue.append((ordinal, remainder))
                full += 1
            self._states[ordinal] = _QueryState(row, full)
            self._dispatch_cpu(now)

    # ------------------------------------------------------------------ #

    def _dispatch_cpu(self, now: float) -> None:
        queue = self._cpu_queue
        busy = self._busy_cores
        cores = self._num_cores
        if not queue or busy >= cores:
            return
        service_rows = self._cpu_service
        scale = self._service_scale
        heappush = heapq.heappush
        events = self._events
        counter = self._counter
        server_index = self._server_index
        busy_time = self.cpu_busy_time
        while queue and busy < cores:
            ordinal, request_batch = queue.popleft()
            busy += 1
            service = service_rows[busy][request_batch] * scale
            busy_time += service
            heappush(
                events,
                (now + service, EVT_CPU_DONE, next(counter), server_index, ordinal),
            )
        self._busy_cores = busy
        self.cpu_busy_time = busy_time

    def _dispatch_gpu(self, now: float) -> None:
        if self._gpu_busy or not self._gpu_queue:
            return
        ordinal = self._gpu_queue.popleft()
        self._gpu_busy = True
        service = self._gpu_service(self._states[ordinal][2]) * self._service_scale
        self.gpu_busy_time += service
        heapq.heappush(
            self._events,
            (
                now + service,
                EVT_GPU_DONE,
                next(self._counter),
                self._server_index,
                ordinal,
            ),
        )


def late_window_p95(samples: "Union[Sequence[float], np.ndarray]") -> float:
    """p95 of the second (completion-ordered) half of the measured latencies."""
    late_window = samples[len(samples) // 2 :]
    if not len(late_window):
        return 0.0
    return percentile_of_sorted(np.sort(np.asarray(late_window, dtype=np.float64)), 95)


def _sketch_recorder(tracker, late_tracker, late_start):
    """Chunked ``(chunk, flush)`` pair for sketch-mode runs.

    Callers record into ``chunk`` (its C-level ``append``, so no Python call
    per sample).  ``flush()`` feeds the buffered chunk to the sketches in
    bulk (the tracker's ndarray fast path) and returns the measured count
    at which it must be called next: every :data:`_SKETCH_CHUNK` samples,
    and exactly at the late-window start ``late_start``, so no chunk ever
    straddles that boundary and every chunk at or past it feeds the
    late-window sketch too.  On an empty chunk ``flush()`` only returns
    that count, which is how callers get the first flush point.  Chunk
    boundaries — hence the block-by-block running sum — depend only on the
    sample count.
    """
    chunk: List[float] = []
    flushed = [0]  # measured samples already fed to the sketches

    def flush() -> int:
        if chunk:
            arr = np.asarray(chunk, dtype=np.float64)
            tracker.extend(arr)
            if flushed[0] >= late_start:
                late_tracker.extend(arr)
            flushed[0] += len(chunk)
            chunk.clear()
        start = flushed[0]
        end = start + _SKETCH_CHUNK
        return late_start if start < late_start < end else end

    return chunk, flush


@dataclass(frozen=True)
class ServerLoadSummary:
    """Per-server slice of one run."""

    name: str
    num_queries: int
    num_items: int
    cpu_utilization: float
    gpu_utilization: float
    gpu_work_fraction: float
    query_share: float


def summarize_server(
    kernel: ServerKernel, name: str, duration_s: float, num_queries: int
) -> ServerLoadSummary:
    """What one kernel did over a run lasting ``duration_s``."""
    return ServerLoadSummary(
        name=name,
        num_queries=kernel.num_submitted,
        num_items=kernel.total_items,
        cpu_utilization=min(1.0, kernel.cpu_busy_time / (kernel.num_cores * duration_s)),
        gpu_utilization=min(1.0, kernel.gpu_busy_time / duration_s),
        gpu_work_fraction=(
            kernel.gpu_items / kernel.total_items if kernel.total_items else 0.0
        ),
        query_share=kernel.num_submitted / num_queries,
    )


def build_kernels(
    specs: Sequence[Tuple[EnginePair, ServingConfig, int]],
) -> List[ServerKernel]:
    """One kernel per ``(engines, config, num_cores)``.

    All share one event heap and one load vector.
    """
    events: List[tuple] = []
    counter = itertools.count()
    loads = [0] * len(specs)
    return [
        ServerKernel(engines, config, cores, events, counter, loads, index)
        for index, (engines, config, cores) in enumerate(specs)
    ]


def _only_server(loads: List[int]) -> int:
    """The single-server simulator's balancer: everything goes to server 0."""
    return 0


def misrouted(policy: str, chosen: int, num_servers: int) -> ValueError:
    """The error for a balancer that chose a server outside the fleet."""
    return ValueError(f"balancer {policy!r} chose server {chosen} of {num_servers}")


class EventLoop:
    """The one discrete-event loop, as a resumable object.

    The loop serves a time-sorted stream of ``(query_id, arrival_time,
    size)`` rows (:func:`~repro.queries.query.arrival_rows`,
    :meth:`~repro.queries.query.QueryStream.rows`) on ``kernels``, which
    share one event heap and one load vector.  :meth:`feed` advances it
    through a batch of arrivals: each is routed by ``choose(loads)`` at its
    arrival instant, after every completion due no later than it has been
    popped, and the loop stops right after the batch's last arrival —
    completions due later wait on the heap for the next batch.
    :meth:`finish` drains the heap and computes the run's measurements.
    Feeding a stream in any number of sorted batches therefore steps
    exactly the events one batch would, because kernels are FIFO and
    non-preemptive (a completion time never depends on later arrivals) and
    the balancer only sees earlier state.

    Completions are popped while they are due no later than the next
    *external* event — the next arrival or, with a ``faults`` source
    (:class:`~repro.serving.cluster.FaultInjector`), the next fault
    transition or retry — so a completion at time t frees its core before
    anything else happens at t.

    ``num_queries`` states the stream's length up front (the warmup split
    and the rejection certificate need it; a mismatch raises at
    :meth:`finish`).  The loop numbers arrivals in the order it consumes
    them and keys all in-flight state by that ordinal, so query ids are
    free: they need not follow arrival order, nor be unique.  The first
    ``int(num_queries * warmup_fraction)`` ordinals are warmup, never
    measured.  Measured latencies are recorded exactly (every sample
    retained) or into fixed-space sketches (``latency_stats="sketch"``),
    and appended to ``per_server[server_index]`` when those lists are given.
    ``reject_above_sla_s`` arms the early exit described at
    :func:`run_event_loop`.

    With ``num_queries=None`` the loop is *open-ended*, and takes no fault
    source, per-server lists, early exit or sketch statistics.  Its warmup
    cut moves with the count fed so far, so every completion is recorded
    with its ordinal (16 bytes per query in typed arrays) and the cut is
    applied at :meth:`finish`, which yields exactly what a
    one-shot run over the arrivals fed so far would.  Only an open-ended
    loop can :meth:`fork`, and only it has :meth:`finish_sla`, the same
    drain that reads just the SLA fields.  ``summarize(kernels, outcome)``,
    when given, turns :meth:`finish`'s measurements into the caller's
    result type.
    """

    def __init__(
        self,
        kernels: Sequence[ServerKernel],
        warmup_fraction: float,
        num_queries: Optional[int] = None,
        *,
        choose: Callable[[List[int]], int] = _only_server,
        policy: str = "",
        latency_stats: str = "exact",
        per_server: Optional[List[List[float]]] = None,
        reject_above_sla_s: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
        summarize: Optional[Callable[[List[ServerKernel], Dict[str, Any]], Any]] = None,
    ) -> None:
        self.kernels = list(kernels)
        self._events = self.kernels[0]._events
        self._counter = self.kernels[0]._counter
        self._loads = self.kernels[0]._loads
        self._num_queries = num_queries
        self._warmup_fraction = warmup_fraction
        self._choose = choose
        self._policy = policy
        self._sketch_mode = latency_stats == "sketch"
        self._per_server = per_server
        self._faults = faults
        self._summarize = summarize

        self._warmup_count = int((num_queries or 0) * warmup_fraction)
        measured_total = (num_queries or 0) - self._warmup_count
        self._reject_above_sla_s = reject_above_sla_s
        self._reject_needed = certain_rejection_threshold(measured_total)

        # Exact mode collects into a plain list that feeds the tracker in one
        # vectorized pass; sketch mode flushes chunk-wise into fixed-space
        # sketches so peak memory stays O(1) in the trace.  An open-ended
        # loop keeps (arrival ordinal, latency) pairs until the cut is known.
        # Sketch mode calls ``_flush`` when ``_measured`` reaches ``_flush_at``
        # (-1, never reached, in the other modes).
        self._ordinals: Optional[array] = None
        self._latencies: Union[List[float], array, None] = None
        self._flush: Optional[Callable[[], int]] = None
        self._flush_at = -1
        if num_queries is None:
            self._ordinals = array("q")
            self._latencies = array("d")
            self._record = self._latencies.append
        elif self._sketch_mode:
            self._tracker = PercentileTracker(mode="sketch")
            self._late_tracker = PercentileTracker(mode="sketch")
            chunk, self._flush = _sketch_recorder(
                self._tracker, self._late_tracker, measured_total // 2
            )
            self._record = chunk.append
            self._flush_at = self._flush()
        else:
            self._latencies = []
            self._record = self._latencies.append

        # Until a fault fires, every node is up and no query is tracked, so a
        # faulted run takes the same per-event path as a fault-free one.
        self._next_fault = faults.next_time if faults is not None else _INFINITY
        self._healthy = True  # every node up: arrivals go straight to their kernel
        self._measured = 0
        self._consumed = 0
        self._first_arrival: Optional[float] = None
        self._last_arrival = self._last_completion = 0.0
        self._over_sla = 0

    def feed(self, arrivals: Iterable[Row]) -> Optional[CertainRejection]:
        """Serve a time-sorted batch of arrival rows, stopping after the last one.

        Returns a :class:`CertainRejection` if the armed rejection exit
        fired (the loop is then spent), otherwise ``None``.
        """
        iterator = iter(arrivals)
        pending = next(iterator, None)
        if pending is None:
            return None
        if self._first_arrival is None:
            first = pending[1]
            self._first_arrival = self._last_arrival = self._last_completion = first
        return self._advance(pending, iterator)

    def fork(self) -> "EventLoop":
        """An independent copy of an open-ended loop, e.g. to :meth:`finish`.

        Copies only what advancing mutates — the heap, the load vector, each
        kernel's queues and accounting, and the recorded samples; engines
        and latency tables stay shared.  The balancer is shared too:
        a drain routes nothing.  The copy continues the heap's sequence
        numbers, so its events tie-break exactly as the original's would.
        """
        if self._ordinals is None:
            raise ValueError("only an open-ended event loop can fork")
        clone = copy.copy(self)
        clone._events = list(self._events)
        clone._counter = itertools.count(next(self._counter))
        clone._loads = list(self._loads)
        clone.kernels = [
            kernel.fork(clone._events, clone._counter, clone._loads)
            for kernel in self.kernels
        ]
        clone._ordinals = array("q", self._ordinals)
        clone._latencies = array("d", self._latencies)
        clone._record = clone._latencies.append
        return clone

    def finish(self) -> Union[Dict[str, Any], Any, CertainRejection]:
        """Drain every remaining completion and return the run's measurements.

        The measurements are the keyword arguments every result type shares
        (or ``summarize``'s result); an early exit returns its certificate.
        The loop is spent afterwards: :meth:`fork` first to keep feeding.
        """
        drained = self._drain()
        if isinstance(drained, CertainRejection):
            return drained
        num_queries, arrival_span, drain, measured = drained
        if measured is None:
            tracker = self._tracker
            late_tracker = self._late_tracker
            count = tracker.count
            p50, p95, p99 = tracker.p50(), tracker.p95(), tracker.p99()
            mean = tracker.mean()
            p95_late = late_tracker.percentile(95) if late_tracker.count else 0.0
            samples: List[float] = []
        else:
            ordered = np.sort(measured)
            count = ordered.shape[0]
            p50, p95, p99 = (percentile_of_sorted(ordered, pct) for pct in (50, 95, 99))
            mean = float(np.mean(measured))
            p95_late = late_window_p95(measured)
            samples = measured.tolist()
        duration = max(self._last_completion - self._first_arrival, 1e-9)
        outcome = dict(
            num_queries=num_queries,
            measured_queries=count,
            duration_s=duration,
            p50_latency_s=p50,
            p95_latency_s=p95,
            p99_latency_s=p99,
            mean_latency_s=mean,
            achieved_qps=num_queries / duration,
            offered_qps=num_queries / arrival_span,
            p95_late_window_s=p95_late,
            drain_s=drain,
            arrival_span_s=arrival_span,
            latencies_s=samples,
        )
        if self._summarize is not None:
            return self._summarize(self.kernels, outcome)
        return outcome

    def finish_sla(self) -> SLAReading:
        """Drain an open-ended loop as :meth:`finish` does; read only the SLA.

        The :class:`SLAReading` equals the fields :meth:`finish` would
        report, bit for bit, and so do its ``meets_sla`` and ``is_stable``.
        It costs one sort of the measured samples and one of their late
        half, and builds no sample list and no result.  The loop is spent
        afterwards, like after :meth:`finish`.
        """
        if self._ordinals is None:
            raise ValueError("only an open-ended event loop can finish_sla")
        drained = self._drain()
        assert not isinstance(drained, CertainRejection)  # nothing arms an exit here
        _, arrival_span, drain, measured = drained
        return SLAReading(
            percentile_of_sorted(np.sort(measured), 95),
            late_window_p95(measured),
            drain,
            arrival_span,
        )

    def _drain(
        self,
    ) -> Union[Tuple[int, float, float, Optional[np.ndarray]], CertainRejection]:
        """Drain the heap and cut the warmup, for :meth:`finish` and
        :meth:`finish_sla`.

        Returns ``(num_queries, arrival_span_s, drain_s, measured)``, where
        ``measured`` holds the exact samples past the warmup cut in
        completion order (``None`` in sketch mode, whose trackers are
        flushed), or the certificate of an early exit.
        """
        if self._first_arrival is None:
            raise ValueError("cannot simulate an empty query stream")
        early = self._advance(None, iter(()))
        if early is not None:
            return early
        num_queries = self._num_queries
        consumed = self._consumed
        if num_queries is None:
            num_queries = consumed
        elif consumed != num_queries:
            raise ValueError(f"num_queries={num_queries} but the stream yielded {consumed}")
        measured: Optional[np.ndarray] = None
        if self._sketch_mode:
            self._flush()
            count = self._tracker.count
        else:
            if self._ordinals is not None:
                # Open-ended: cut the warmup for the final count, keeping the
                # measured samples in completion order, then aggregate exactly
                # as a one-shot run over the same arrivals would.
                warmup_count = int(num_queries * self._warmup_fraction)
                measured = np.frombuffer(self._latencies)[
                    np.frombuffer(self._ordinals, dtype=np.int64) >= warmup_count
                ]
            else:
                measured = np.array(self._latencies, dtype=np.float64)
            count = measured.shape[0]
        if count == 0:
            if self._reject_above_sla_s is not None:
                # Every measured query was lost to faults: 100% of the offered
                # population missed the SLA, so the verdict is certain.
                faults = self._faults
                return CertainRejection(
                    sla_latency_s=self._reject_above_sla_s,
                    measured_queries=0,
                    over_sla_queries=faults.stats.failed_queries if faults is not None else 0,
                )
            raise ValueError(
                "no queries completed outside the warmup window; lower "
                "warmup_fraction (or the fault rates), or send more queries"
            )
        arrival_span = max(self._last_arrival - self._first_arrival, 1e-9)
        drain = max(0.0, self._last_completion - self._last_arrival)
        return num_queries, arrival_span, drain, measured

    def _advance(
        self, pending: Optional[Row], iterator: Iterator[Row]
    ) -> Optional[CertainRejection]:
        """Step the loop: through ``pending`` and ``iterator``, or, with
        ``pending=None``, until nothing is left to happen.

        The one place events leave the heap, and where each completion is
        applied to its kernel.  Loop state lives in locals while stepping
        and is stored back when the batch (or the drain) ends.
        """
        # Hot loop: bind everything to locals.
        kernels = self.kernels
        events = self._events
        counter = self._counter
        loads = self._loads
        heappop = heapq.heappop
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        num_kernels = len(kernels)
        choose = self._choose
        record = self._record
        flush = self._flush
        flush_at = self._flush_at
        per_server = self._per_server
        faults = self._faults
        tracked = faults.tracked if faults is not None else {}
        absorb = faults.absorb_completion if faults is not None else None
        record_ordinal = self._ordinals.append if self._ordinals is not None else None
        warmup_count = self._warmup_count
        reject_above = self._reject_above_sla_s
        reject_sla = reject_above if reject_above is not None else _INFINITY
        reject_needed = self._reject_needed
        next_fault = self._next_fault
        healthy = self._healthy
        measured = self._measured
        consumed = self._consumed
        last_arrival = self._last_arrival
        last_completion = self._last_completion
        over_sla = self._over_sla
        next_arrival = pending[1] if pending is not None else _INFINITY
        next_external = next_arrival if next_arrival < next_fault else next_fault
        with pause_gc():
            while True:
                while events:
                    now, kind, _, server_index, ordinal = events[0]
                    if now > next_external:
                        break
                    kernel = kernels[server_index]
                    states = kernel._states
                    if kind == EVT_CPU_DONE:
                        # One core freed, so at most one queued request
                        # starts, on the busy-core count before the freeing.
                        # Its completion replaces this one on the heap: one
                        # sift instead of a pop and a push, and the same pop
                        # order, because (time, kind, seq) is a total order.
                        queue = kernel._cpu_queue
                        if queue:
                            next_ordinal, request_batch = queue.popleft()
                            service = (
                                kernel._cpu_service[kernel._busy_cores][request_batch]
                                * kernel._service_scale
                            )
                            kernel.cpu_busy_time += service
                            heapreplace(
                                events,
                                (
                                    now + service,
                                    EVT_CPU_DONE,
                                    next(counter),
                                    server_index,
                                    next_ordinal,
                                ),
                            )
                        else:
                            heappop(events)
                            kernel._busy_cores -= 1
                        state = states[ordinal]
                        if type(state) is _QueryState:
                            remaining = state.outstanding_requests - 1
                            if remaining:
                                state.outstanding_requests = remaining
                                continue
                            row = state.row
                        else:
                            row = state
                        del states[ordinal]
                        loads[server_index] -= row[2]
                    else:  # EVT_GPU_DONE: always finishes the query
                        heappop(events)
                        row = states.pop(ordinal)
                        loads[server_index] -= row[2]
                        kernel._gpu_busy = False
                        kernel._dispatch_gpu(now)
                    if now > last_completion:
                        last_completion = now
                    if tracked and absorb(ordinal):
                        continue
                    if ordinal < warmup_count:
                        continue
                    latency = now - row[1]
                    record(latency)
                    if record_ordinal is not None:
                        record_ordinal(ordinal)
                    measured += 1
                    if measured == flush_at:
                        flush_at = flush()
                    if per_server is not None:
                        per_server[server_index].append(latency)
                    if latency > reject_sla:
                        over_sla += 1
                        if over_sla >= reject_needed:
                            return CertainRejection(
                                sla_latency_s=reject_sla,
                                measured_queries=measured,
                                over_sla_queries=over_sla,
                            )
                if next_fault <= next_arrival:  # always true once arrivals run out
                    if pending is None and not events and (faults is None or faults.idle):
                        break  # drained: later transitions cannot touch the run
                    faults.step()
                    next_fault = faults.next_time
                    healthy = faults.healthy
                    next_external = min(next_arrival, next_fault)
                    continue
                row = pending
                arrival = row[1]
                if arrival < last_arrival:
                    raise ValueError(
                        "arrivals must come pre-sorted by time: query "
                        f"{row[0]} arrives at {arrival} after {last_arrival}"
                    )
                last_arrival = arrival
                ordinal = consumed
                consumed += 1
                pending = next(iterator, None)
                chosen = choose(loads)
                if not 0 <= chosen < num_kernels:
                    raise misrouted(self._policy, chosen, num_kernels)
                if healthy:
                    kernel = kernels[chosen]
                    size = row[2]
                    if size <= kernel._direct_limit:
                        # One unoffloaded CPU request: ServerKernel.submit's
                        # single-request branch, without the call.  A free
                        # core starts it now (a free core implies an empty
                        # queue), else it queues.
                        kernel.num_submitted += 1
                        kernel.total_items += size
                        loads[chosen] += size
                        kernel._states[ordinal] = row
                        busy = kernel._busy_cores
                        if busy < kernel._num_cores:
                            busy += 1
                            service = kernel._cpu_service[busy][size] * kernel._service_scale
                            kernel.cpu_busy_time += service
                            kernel._busy_cores = busy
                            heappush(
                                events,
                                (arrival + service, EVT_CPU_DONE, next(counter), chosen, ordinal),
                            )
                        else:
                            kernel._cpu_queue.append((ordinal, size))
                    else:  # offloaded or split
                        kernel.submit(ordinal, row, arrival)
                else:
                    faults.dispatch(ordinal, row, chosen, arrival)
                    next_fault = faults.next_time
                if pending is None:
                    break  # batch fed: later completions wait for the next one
                next_arrival = pending[1]
                next_external = next_arrival if next_arrival < next_fault else next_fault

        self._next_fault = next_fault
        self._healthy = healthy
        self._measured = measured
        self._flush_at = flush_at
        self._consumed = consumed
        self._last_arrival = last_arrival
        self._last_completion = last_completion
        self._over_sla = over_sla
        return None


def run_event_loop(
    kernels: Sequence[ServerKernel],
    arrivals: Iterable[Row],
    num_queries: int,
    warmup_fraction: float,
    **options: Any,
) -> Union[Dict[str, Any], CertainRejection]:
    """Serve a time-sorted arrival stream of known length on ``kernels``.

    One :class:`EventLoop` fed the whole stream of rows, then finished;
    ``options`` are its keyword arguments.  ``arrivals`` is read one row
    ahead of the clock, so a generator streams in constant memory.

    ``reject_above_sla_s`` returns a :class:`CertainRejection` as soon as the
    full run's p95 provably exceeds the target.  Otherwise the run's
    measurements are returned as the keyword arguments every result type
    shares.
    """
    loop = EventLoop(kernels, warmup_fraction, num_queries, **options)
    rejected = loop.feed(arrivals)
    return rejected if rejected is not None else loop.finish()


class ServingSimulator:
    """Event-driven simulator for one inference server.

    Measured latencies are always recorded exactly, every sample retained.
    The fixed-space sketch tier belongs to one-shot fleet runs alone
    (:class:`~repro.serving.cluster.ClusterSimulator`).
    """

    def __init__(self, engines: EnginePair, config: ServingConfig) -> None:
        self._engines = engines
        self._num_cores = resolve_num_cores(engines, config)
        self._config = config

    @property
    def config(self) -> ServingConfig:
        """The scheduling configuration being simulated."""
        return self._config

    @property
    def num_cores(self) -> int:
        """Number of CPU worker cores simulated."""
        return self._num_cores

    # ------------------------------------------------------------------ #

    def run(
        self,
        queries: Sequence[Query],
        reject_above_sla_s: Optional[float] = None,
    ) -> Union[SimulationResult, CertainRejection]:
        """Simulate serving ``queries`` and return aggregate measurements.

        ``reject_above_sla_s`` arms the exact early-rejection exit: the run
        stops and returns a :class:`CertainRejection` the moment enough
        measured latencies exceed the target that the completed run's p95
        would provably exceed it too (:func:`certain_rejection_threshold`).
        Runs that meet the target always complete
        and return the ordinary full result, so accepted measurements are
        unchanged bit for bit.
        """
        config = self._config
        ordered = arrival_rows(queries)
        kernels = build_kernels([(self._engines, config, self._num_cores)])
        outcome = run_event_loop(
            kernels,
            ordered,
            len(ordered),
            config.warmup_fraction,
            reject_above_sla_s=reject_above_sla_s,
        )
        if not isinstance(outcome, dict):
            return outcome
        server = summarize_server(kernels[0], "", outcome["duration_s"], len(ordered))
        return SimulationResult(
            config=config,
            cpu_utilization=server.cpu_utilization,
            gpu_utilization=server.gpu_utilization,
            gpu_work_fraction=server.gpu_work_fraction,
            **outcome,
        )
