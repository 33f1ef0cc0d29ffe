"""The digital twin: incremental windowed simulation of a live fleet.

:class:`DigitalTwin` is the service's core loop body.  Fed one closed
:class:`~repro.service.windows.Window` at a time, it

1. feeds the window's events, sorted by arrival time, into one open-ended
   :meth:`~repro.serving.cluster.ClusterSimulator.stream` per configured
   fleet (real, and the shadow what-if when present).  Each stream is one
   resumable event loop that lives as long as the twin, so a window costs
   only its own events, not a replay of the history;
2. reports each fleet's SLA verdict from a fork of its stream, drained
   (:meth:`~repro.serving.simulator.EventLoop.finish_sla`): the
   measurement of the *whole stream so far* (window 0 through the window
   just closed — the OpenDT ``sim-worker`` discipline), with no sample
   list and no result object.  Window indices follow event time, so the
   windows' sorted events concatenate to the sorted history, and every
   verdict is **bit-identical** to one from a one-shot batch run over the
   same events — asserted window by window in
   ``tests/test_service_twin.py::TestCumulativeBitIdentity``;
3. predicts each fleet's capacity with the unified
   :class:`~repro.runtime.capacity.CapacitySearch` against a shared
   :class:`~repro.runtime.capacity.CapacityCache`.  The search's inputs are
   window-independent, so the first window pays the cold bisection and every
   later window replays through the in-process memo at ~0 evaluations (one
   verifying evaluation when warm-starting from disk across restarts);
4. emits a :class:`TwinWindowReport` carrying both
   :class:`~repro.service.shadow.ConfigVerdict` s and the shadow-mode
   :class:`~repro.service.shadow.ShadowVerdict`.

Long-lived state (the worker pool, the capacity cache, the per-config
event loops, the offered-rate tracker) is built once and reused across
windows — the whole point of running as a service instead of a batch CLI.

>>> from repro.queries.generator import LoadGenerator
>>> from repro.service.shadow import FleetSpec
>>> from repro.service.windows import WindowManager
>>> twin = DigitalTwin(
...     real=FleetSpec(name="real", model="ncf", platform="broadwell",
...                    num_servers=2, batch_size=128, num_cores=4),
...     sla_latency_s=0.08,
...     load_generator=LoadGenerator(seed=11),
...     search_num_queries=80, search_iterations=3, search_max_queries=200,
... )
>>> manager = WindowManager(window_s=5.0)
>>> stream = LoadGenerator(seed=11).with_rate(60.0).generate(400)
>>> windows = manager.extend(stream) + manager.flush()
>>> reports = [twin.observe(window) for window in windows]
>>> first, last = reports[0], reports[-1]
>>> first.real.evaluations > 0      # cold capacity search on window 0
True
>>> last.real.evaluations           # later windows replay from the memo
0
>>> last.cumulative_queries == len(stream)
True
>>> twin.close()
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.execution.engine import EnginePair, build_cpu_engine
from repro.experiments.result import ExperimentResult
from repro.queries.generator import LoadGenerator
from repro.queries.query import arrival_rows
from repro.runtime.capacity import CapacityCache, CapacitySearch, run_capacity_searches
from repro.runtime.pool import WorkerPool
from repro.serving.cluster import ClusterSimulationResult, ClusterSimulator
from repro.service.shadow import (
    ConfigVerdict,
    FleetSpec,
    ShadowVerdict,
    compare_verdicts,
)
from repro.service.windows import Window
from repro.utils.stats import PercentileTracker
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TwinWindowReport:
    """Everything the twin publishes when one window closes."""

    window: Window
    cumulative_queries: int
    real: ConfigVerdict
    what_if: Optional[ConfigVerdict]
    shadow: Optional[ShadowVerdict]
    #: Median offered rate across all closed windows so far (long-lived
    #: tracker state — the service-side load trend).
    median_window_rate_qps: float

    def to_experiment_result(self) -> ExperimentResult:
        """The window's verdicts as an :class:`ExperimentResult`.

        Shaped like every batch driver's output so the existing reporting
        stack (``render_report``, the sweep cache, the benchmark harness)
        consumes twin windows unchanged.
        """
        result = ExperimentResult(
            experiment_id=f"digital-twin-w{self.window.index:04d}",
            title=(
                f"window {self.window.index} "
                f"[{self.window.start_s:.0f}s, {self.window.end_s:.0f}s) — "
                f"{len(self.window.queries)} events, "
                f"{self.cumulative_queries} cumulative"
            ),
            headers=[
                "config",
                "status",
                "p95-ms",
                "sla-ms",
                "capacity-qps",
                "offered-qps",
                "headroom",
                "evals",
            ],
        )
        for verdict in filter(None, (self.real, self.what_if)):
            result.add_row(
                verdict.config,
                verdict.status(),
                verdict.p95_latency_s * 1e3,
                verdict.sla_latency_s * 1e3,
                verdict.capacity_qps,
                verdict.offered_qps,
                verdict.headroom,
                verdict.evaluations,
            )
        if self.shadow is not None:
            result.notes = self.shadow.describe()
        result.metadata["window_index"] = self.window.index
        result.metadata["median_window_rate_qps"] = self.median_window_rate_qps
        if self.shadow is not None:
            result.metadata["diverged"] = self.shadow.diverged
        return result

    def summary_line(self) -> str:
        """Compact one-window log line for the streaming service output."""
        parts = [
            f"w{self.window.index:04d}",
            f"events={len(self.window.queries)}",
            f"cum={self.cumulative_queries}",
            f"real={self.real.status()}"
            f"(p95={self.real.p95_latency_s * 1e3:.1f}ms,"
            f" cap={self.real.capacity_qps:.0f}qps,"
            f" evals={self.real.evaluations})",
        ]
        if self.what_if is not None:
            parts.append(
                f"what-if={self.what_if.status()}"
                f"(p95={self.what_if.p95_latency_s * 1e3:.1f}ms,"
                f" cap={self.what_if.capacity_qps:.0f}qps)"
            )
        if self.shadow is not None and self.shadow.diverged:
            parts.append("DIVERGED")
        return "  ".join(parts)


class _FleetState:
    """One configured fleet's long-lived twin state (built once, reused)."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.engines = EnginePair(
            cpu=build_cpu_engine(spec.model, spec.platform), gpu=None
        )
        self.servers = spec.build_servers(self.engines)
        # One open-ended event loop for the service's lifetime: every
        # window's events are fed once, and reports drain a fork of it.
        self.stream = ClusterSimulator(self.servers, balancer=spec.policy).stream()


class DigitalTwin:
    """Simulates a live stream window by window, real vs what-if.

    Parameters
    ----------
    real:
        The fleet configuration actually serving traffic.
    sla_latency_s:
        The p95 target both configs are held to.
    load_generator:
        Workload template for the capacity searches (arrival process shape,
        query-size distribution, seed).  Window simulation uses the
        *observed* events; only the capacity prediction needs a generator.
    what_if:
        Optional shadow configuration evaluated side by side.
    jobs / pool:
        Worker budget (and optionally an explicit long-lived
        :class:`~repro.runtime.pool.WorkerPool`) for the capacity searches.
    capacity_cache_dir:
        Warm-start cache directory.  Defaults to a private temporary
        directory owned (and cleaned up) by the twin; point it somewhere
        persistent to warm-start across service restarts.
    search_num_queries / search_iterations / search_max_queries:
        Fidelity knobs forwarded to :class:`CapacitySearch.for_fleet`.

    Statistics are exact: each fleet's event loop keeps every measured
    latency with its arrival ordinal, because the warmup cut moves as
    events arrive, so memory grows by 16 bytes per query per fleet, besides
    the in-flight queries (see ``docs/performance.md``).
    """

    def __init__(
        self,
        real: FleetSpec,
        sla_latency_s: float,
        load_generator: LoadGenerator,
        what_if: Optional[FleetSpec] = None,
        *,
        jobs: int = 1,
        pool: Optional[WorkerPool] = None,
        capacity_cache_dir: Union[str, Path, None] = None,
        search_num_queries: int = 400,
        search_iterations: int = 6,
        search_max_queries: int = 4000,
    ) -> None:
        check_positive("sla_latency_s", sla_latency_s)
        if what_if is not None and what_if.name == real.name:
            raise ValueError(
                f"real and what-if specs must have distinct names, "
                f"both are {real.name!r}"
            )
        self._sla_latency_s = sla_latency_s
        self._load_generator = load_generator
        self._jobs = jobs
        self._pool = pool
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if capacity_cache_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="twin-capacity-")
            capacity_cache_dir = self._tempdir.name
        self._capacity_cache = CapacityCache(capacity_cache_dir)
        self._search_fidelity = {
            "num_queries": search_num_queries,
            "iterations": search_iterations,
            "max_queries": search_max_queries,
        }
        self._fleets = [_FleetState(real)]
        if what_if is not None:
            self._fleets.append(_FleetState(what_if))
        # One capacity search per fleet, built on the first observed window
        # (absorb-only runs never need them) and reused for every later one.
        self._searches: Optional[List[CapacitySearch]] = None
        self._cumulative_queries = 0
        self._last_window_index: Optional[int] = None
        self._windows_observed = 0
        # Long-lived across windows: the offered-rate tracker is queried
        # (median) and then recorded into again on every window — the
        # record-after-percentile pattern tests/test_utils_stats.py pins.
        self._window_rates = PercentileTracker()

    # ------------------------------------------------------------------ #

    @property
    def sla_latency_s(self) -> float:
        """The p95 target the twin holds both configs to."""
        return self._sla_latency_s

    @property
    def capacity_cache(self) -> CapacityCache:
        """The twin's shared warm-start cache (its ``stats`` show the tiers)."""
        return self._capacity_cache

    @property
    def windows_observed(self) -> int:
        """Number of windows fed so far (observed or absorbed)."""
        return self._windows_observed

    @property
    def cumulative_queries(self) -> int:
        """Events accumulated across all observed windows."""
        return self._cumulative_queries

    def specs(self) -> List[FleetSpec]:
        """The configured fleet specs (real first, then the what-if)."""
        return [state.spec for state in self._fleets]

    # ------------------------------------------------------------------ #

    def observe(self, window: Window) -> TwinWindowReport:
        """Ingest one closed window: simulate its events, report, re-predict.

        Windows must come in increasing index order (the
        :class:`~repro.service.windows.WindowManager` emits them that way);
        a window whose index is not above the last one fed raises
        :class:`ValueError`.
        """
        self._feed(window)
        capacities = self._predict_capacities()
        verdicts: List[ConfigVerdict] = []
        for state, capacity in zip(self._fleets, capacities):
            reading = state.stream.fork().finish_sla()
            verdicts.append(
                ConfigVerdict(
                    config=state.spec.name,
                    p95_latency_s=reading.p95_latency_s,
                    sla_latency_s=self._sla_latency_s,
                    meets_sla=reading.meets_sla(self._sla_latency_s),
                    stable=reading.is_stable(self._sla_latency_s),
                    capacity_qps=capacity.max_qps,
                    offered_qps=window.mean_rate_qps,
                    evaluations=capacity.evaluations,
                )
            )

        real = verdicts[0]
        what_if = verdicts[1] if len(verdicts) > 1 else None
        shadow = compare_verdicts(real, what_if) if what_if is not None else None
        return TwinWindowReport(
            window=window,
            cumulative_queries=self._cumulative_queries,
            real=real,
            what_if=what_if,
            shadow=shadow,
            median_window_rate_qps=self._window_rates.p50(),
        )

    def absorb(self, window: Window) -> None:
        """Feed one closed window without reporting on it.

        The cheap sibling of :meth:`observe`: the window's events are fed
        to every fleet's event loop (and the rate tracker sees its offered
        rate), but no report is finished or emitted and no capacity search
        runs.  The events still advance the loops, so every
        later measurement is bit-identical to one where the window was
        observed — which is what makes absorbing safe for both checkpoint
        resume (:meth:`restore`) and load shedding.  The same ordering rule
        as :meth:`observe` applies.
        """
        self._feed(window)

    def restore(self, windows: List[Window]) -> None:
        """Adopt a journalled window sequence (crash recovery, in order)."""
        for window in windows:
            self.absorb(window)

    def last_cumulative_result(self, config: Optional[str] = None) -> ClusterSimulationResult:
        """The cumulative result for one config (default: real).

        The full measurement over everything fed so far, finished on a
        fresh fork at each call; the bit-identity tests compare it against
        a one-shot batch run over the same events.
        """
        state = self._state(config)
        if not self._cumulative_queries:
            raise ValueError("no windows observed yet")
        return state.stream.fork().finish()

    def close(self) -> None:
        """Release twin-owned resources (the private cache directory)."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "DigitalTwin":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _state(self, config: Optional[str]) -> _FleetState:
        if config is None:
            return self._fleets[0]
        for state in self._fleets:
            if state.spec.name == config:
                return state
        raise KeyError(
            f"unknown config {config!r}; have {[s.spec.name for s in self._fleets]}"
        )

    def _feed(self, window: Window) -> None:
        """Feed one window's events to every fleet and the window trackers."""
        if not window.queries:
            raise ValueError(f"window {window.index} is empty; nothing to feed")
        last = self._last_window_index
        if last is not None and window.index <= last:
            raise ValueError(
                f"window {window.index} arrived after window {last}; windows "
                "must be fed in increasing index order"
            )
        rows = arrival_rows(window.queries)
        for state in self._fleets:
            state.stream.feed(rows)
        self._last_window_index = window.index
        self._cumulative_queries += len(rows)
        self._windows_observed += 1
        self._window_rates.add(window.mean_rate_qps)

    def _predict_capacities(self):
        """Both fleets' capacity at the SLA, via the shared memoised search.

        The searches' inputs are window-independent (fleet, SLA, workload
        template), so window 0 runs them cold and every later window hits
        the cache's in-process memo — ``evaluations == 0`` — keeping the
        per-window cost at the window's own simulation and report.  The
        searches themselves are built once, so a memo hit costs a lookup of
        each search's cached digest.
        """
        if self._searches is None:
            self._searches = [
                CapacitySearch.for_fleet(
                    state.servers,
                    state.spec.policy,
                    self._sla_latency_s,
                    self._load_generator,
                    **self._search_fidelity,
                )
                for state in self._fleets
            ]
        # Both configs' searches drain one shared pool concurrently (the
        # cross-search driver), exactly like a batch sweep would.
        return run_capacity_searches(
            self._searches,
            jobs=self._jobs,
            warm_start_cache=self._capacity_cache,
            pool=self._pool,
        )


# --------------------------------------------------------------------------- #


def render_window_reports(reports: List[TwinWindowReport]) -> str:
    """Render a batch of window reports as the experiments report format."""
    from repro.experiments.runner import render_report

    return render_report([report.to_experiment_result() for report in reports])
