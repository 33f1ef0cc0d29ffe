"""Experiment runner: execute registered drivers by id and render reports.

Besides the serial helpers (:func:`run_experiment` / :func:`run_experiments`),
this module provides :class:`SweepRunner`, a parallel sweep executor: it fans
independent sweep points out over the invocation's shared
:class:`~repro.runtime.pool.WorkerPool` (one Python process per host core by
default) and memoises every completed point in an on-disk cache keyed by a
stable hash of ``(experiment_id, kwargs)``.  Figure sweeps (fig9–fig15) are
embarrassingly parallel across their grid points, so this turns an
hours-long serial regeneration into minutes on a many-core host — and
re-running a sweep with overlapping points only pays for the new ones.

Parallelism is layered without oversubscription: when the sweep itself runs
points in the pool, drivers are *not* handed a worker budget on top (and the
pool's nesting detection would run any nested parallel call serially
anyway); when a single experiment runs inline, the worker budget is instead
routed into the driver as ``jobs`` so e.g. figure-15's capacity searches use
the same shared pool the sweep would have.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.registry import (
    available_experiments,
    experiment_parameters,
    get_experiment,
)
from repro.experiments.result import ExperimentResult
from repro.runtime.pool import as_completed, pool_scope


def run_experiment(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    """Run a single registered experiment and return its result."""
    driver = get_experiment(experiment_id)
    return driver(**kwargs)


def _parallelism_overrides(
    experiment_id: str,
    existing: Dict[str, Any],
    processes: Optional[int],
    cache_dir: Union[str, Path, None],
    pooled: bool = False,
) -> Dict[str, Any]:
    """Route worker/cache settings into a driver that understands them.

    When the driver runs inline (a single-experiment invocation, or a serial
    sweep), the requested ``processes`` are handed to it as ``jobs`` so its
    internal parallel work (capacity searches, replay fans) lands on the
    invocation's shared pool.  When the driver itself runs *inside* the pool
    (``pooled=True``), no ``jobs`` are injected — sweep-level parallelism
    already owns the workers, and handing each pooled point a worker budget
    on top would oversubscribe the host (nested calls would run serially by
    nesting detection, but only after paying the pool's dispatch
    overhead).  ``cache_dir`` doubles as the capacity warm-start / replay
    memo directory either way.  Explicit overrides always win.
    """
    parameters = experiment_parameters(experiment_id)
    extra = dict(existing)
    workers = processes if processes is not None else (os.cpu_count() or 1)
    if not pooled and workers > 1 and "jobs" in parameters and "jobs" not in extra:
        extra["jobs"] = workers
    if (
        cache_dir is not None
        and "capacity_cache_dir" in parameters
        and "capacity_cache_dir" not in extra
    ):
        # Resolve so the same directory hashes identically regardless of the
        # working directory the sweep is launched from.
        extra["capacity_cache_dir"] = str(Path(cache_dir).resolve())
    return extra


def run_experiments(
    experiment_ids: Optional[Sequence[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    processes: Optional[int] = 1,
    cache_dir: Union[str, Path, None] = None,
) -> List[ExperimentResult]:
    """Run several experiments (all registered ones by default).

    ``overrides`` maps experiment ids to keyword arguments for their drivers,
    so callers can lower fidelity for quick runs.  With ``processes > 1`` the
    experiments execute concurrently on the invocation's shared worker pool;
    ``cache_dir`` additionally memoises each (experiment, kwargs) pair on
    disk and is forwarded to every driver that accepts a
    ``capacity_cache_dir``.  When a *single* experiment is requested, the
    worker budget is instead passed to the driver itself (as ``jobs``) if it
    accepts one, so e.g. figure-15's capacity searches scale with ``--jobs``
    rather than wasting the pool on a one-point sweep.
    """
    ids = list(experiment_ids) if experiment_ids is not None else available_experiments()
    overrides = dict(overrides) if overrides else {}
    workers = processes if processes is not None else (os.cpu_count() or 1)
    pooled = len(ids) > 1 and workers > 1
    for eid in ids:
        overrides[eid] = _parallelism_overrides(
            eid, overrides.get(eid, {}), processes, cache_dir, pooled=pooled
        )
    if (workers == 1 or len(ids) == 1) and cache_dir is None:
        return [run_experiment(eid, **overrides.get(eid, {})) for eid in ids]
    runner = SweepRunner(
        processes=1 if len(ids) == 1 else processes, cache_dir=cache_dir
    )
    outcome = runner.run_points([(eid, overrides.get(eid, {})) for eid in ids])
    return outcome.results


def render_report(results: Sequence[ExperimentResult]) -> str:
    """Render a multi-experiment plain-text report.

    Drivers that ran against a warm-start / replay cache record its per-tier
    hit/miss counters under ``metadata["capacity_cache_stats"]``; the report
    appends them under each table so cache behaviour is visible from the
    CLI (``--cache-dir``) instead of only via a debugger.
    """
    sections = []
    for result in results:
        section = result.to_table()
        stats = result.metadata.get("capacity_cache_stats")
        if isinstance(stats, dict) and stats:
            rendered = ", ".join(
                f"{key.replace('_', ' ')}: {value}"
                for key, value in sorted(stats.items())
            )
            section = f"{section}\n[cache] {rendered}"
        sections.append(section)
    return "\n\n".join(sections)


# --------------------------------------------------------------------------- #
# Parallel sweep execution with an on-disk result cache
# --------------------------------------------------------------------------- #


def canonicalize(value: Any) -> Any:
    """Reduce driver kwargs to a canonical JSON-serialisable form.

    Tuples become lists, enums their values, mappings get sorted keys —
    anything else must already be JSON-representable.  Two kwargs dicts that
    canonicalise identically are treated as the same sweep point.
    """
    if isinstance(value, Enum):
        return canonicalize(value.value)
    if isinstance(value, dict):
        return {str(key): canonicalize(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for sweep caching: {value!r}"
    )


#: Driver kwargs that, by convention, cannot change an experiment's results —
#: only how fast they are computed.  Excluded from the memo key so cached
#: sweep points hit regardless of the worker budget of the run that wrote
#: them.  ``capacity_cache_dir`` qualifies since the unified capacity search
#: made warm starts replay-exact: a warm-started search returns bit-identical
#: results to the cold serial run, so the cache directory (and whether one
#: was set at all) cannot change what a driver computes.
RESULT_NEUTRAL_KEYS = frozenset({"jobs", "capacity_cache_dir"})

#: Version of the sweep-memo key.  The memo is keyed on *kwargs*, so a change
#: to a driver's defaults or semantics (new default policy swept, different
#: reported columns) would otherwise serve stale entries recorded under the
#: old behaviour.  Bump this whenever such a change lands; every old entry
#: then misses by construction.  (v2: figure-13's default policy sweep grew
#: ``weighted-least-outstanding``.  v3: cache-aware drivers record
#: ``capacity_cache_stats`` metadata, which entries recorded by older
#: drivers lack.)
SWEEP_MEMO_SCHEMA = 3


def config_hash(experiment_id: str, kwargs: Dict[str, Any]) -> str:
    """Stable hex digest identifying one (experiment, kwargs) sweep point.

    Result-neutral knobs (:data:`RESULT_NEUTRAL_KEYS`) are dropped before
    hashing: a point computed with ``jobs=8`` against a warm-start cache is
    the same result as one computed serially and cold.  The
    :data:`SWEEP_MEMO_SCHEMA` version is folded in so entries recorded under
    older driver semantics can never be served back.
    """
    meaningful = {
        key: value
        for key, value in sorted(kwargs.items())
        if key not in RESULT_NEUTRAL_KEYS
    }
    payload = json.dumps(
        {
            "schema": SWEEP_MEMO_SCHEMA,
            "experiment_id": experiment_id.lower(),
            "kwargs": canonicalize(meaningful),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _execute_point(point: Tuple[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Worker entry: run one sweep point and return the serialised result.

    Importing :mod:`repro.experiments` (a side effect of unpickling this
    function in a spawned worker) registers every driver, so the registry is
    populated regardless of the multiprocessing start method.
    """
    experiment_id, kwargs = point
    return run_experiment(experiment_id, **kwargs).to_dict()


@dataclass
class SweepOutcome:
    """Results plus execution statistics from one sweep run."""

    results: List[ExperimentResult]
    cache_hits: int
    cache_misses: int
    elapsed_s: float
    processes: int
    point_hashes: List[str] = field(default_factory=list)

    @property
    def num_points(self) -> int:
        """Total sweep points (cached + executed)."""
        return len(self.results)


class SweepRunner:
    """Execute independent sweep points in parallel with on-disk memoisation.

    Parameters
    ----------
    processes:
        Worker processes; ``None`` means one per host core (capped by the
        number of uncached points).  ``1`` executes inline, which is also
        the fallback whenever only one point needs computing.
    cache_dir:
        Directory for the result cache; created on first use.  ``None``
        disables caching.  Entries are one JSON file per point, named by
        :func:`config_hash`, so caches can be shared, inspected, and pruned
        with ordinary file tools.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        cache_dir: Union[str, Path, None] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self._processes = processes
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None

    @property
    def cache_dir(self) -> Optional[Path]:
        """The cache directory, if caching is enabled."""
        return self._cache_dir

    # ------------------------------------------------------------------ #

    def _cache_path(self, digest: str) -> Optional[Path]:
        if self._cache_dir is None:
            return None
        return self._cache_dir / f"{digest}.json"

    def _cache_load(self, digest: str) -> Optional[ExperimentResult]:
        path = self._cache_path(digest)
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
            return ExperimentResult.from_dict(payload["result"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError):
            return None  # Treat unreadable/corrupt/foreign-shaped entries as misses.

    def _cache_store(
        self, digest: str, experiment_id: str, kwargs: Dict[str, Any], result: Dict[str, Any]
    ) -> None:
        path = self._cache_path(digest)
        if path is None:
            return
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        entry = {
            "experiment_id": experiment_id,
            "kwargs": canonicalize(kwargs),
            "result": result,
        }
        # Write-then-rename keeps concurrent sweeps from reading torn entries.
        scratch = path.with_suffix(f".tmp-{os.getpid()}")
        scratch.write_text(json.dumps(entry, sort_keys=True))
        scratch.replace(path)

    # ------------------------------------------------------------------ #

    def run(
        self, experiment_id: str, points: Sequence[Dict[str, Any]]
    ) -> SweepOutcome:
        """Run ``points`` (kwargs dicts) of one experiment, possibly in parallel."""
        return self.run_points([(experiment_id, dict(point)) for point in points])

    def run_points(
        self, points: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> SweepOutcome:
        """Run mixed (experiment_id, kwargs) sweep points, possibly in parallel.

        With caching enabled, points are deduplicated by config hash: each
        distinct point is computed once per run and identical points (within
        the run or from earlier runs) are served from its result.  Without a
        cache directory no hashing happens at all, so kwargs only need to be
        picklable, not canonicalisable.
        """
        if not points:
            raise ValueError("a sweep needs at least one point")
        started = time.perf_counter()
        use_cache = self._cache_dir is not None
        digests = (
            [config_hash(eid, kwargs) for eid, kwargs in points] if use_cache else []
        )

        results: List[Optional[ExperimentResult]] = [None] * len(points)
        execute: List[int] = []  # point indices actually computed
        if use_cache:
            first_index_by_digest: Dict[str, int] = {}
            for index, digest in enumerate(digests):
                if digest in first_index_by_digest:
                    continue  # duplicate of an earlier point in this run
                cached = self._cache_load(digest)
                if cached is not None:
                    results[index] = cached
                else:
                    execute.append(index)
                first_index_by_digest[digest] = index
        else:
            execute = list(range(len(points)))

        host_cores = os.cpu_count() or 1
        workers = self._processes if self._processes is not None else host_cores
        workers = max(1, min(workers, len(execute)))

        if execute:
            todo = [points[index] for index in execute]
            if workers == 1:
                # Inline fallback: the sweep itself runs serially (one
                # uncached point, or a serial budget).  If the *caller's*
                # budget allows parallelism, re-grant it to each driver as
                # ``jobs`` — otherwise a mostly-cached sweep would strand
                # the invocation's shared pool while its one fresh point
                # bisects serially.  The memo key is unaffected (``jobs`` is
                # result-neutral) and the stored kwargs stay the caller's.
                budget = self._processes if self._processes is not None else host_cores
                payloads = [
                    _execute_point(
                        (eid, _parallelism_overrides(eid, kwargs, budget, None))
                    )
                    for eid, kwargs in todo
                ]
                for index, payload in zip(execute, payloads):
                    experiment_id, kwargs = points[index]
                    if use_cache:
                        self._cache_store(
                            digests[index], experiment_id, kwargs, payload
                        )
                    results[index] = ExperimentResult.from_dict(payload)
            else:
                # The invocation's shared WorkerPool when one is active (the
                # CLI owns one per invocation), else a private pool closed on
                # exit; a nested sweep inside a pool worker runs inline.
                # Completion-driven: each point's result is cached the moment
                # it lands (an interrupted sweep keeps its finished points),
                # while the remaining points keep the pool full.
                with pool_scope(workers) as worker_pool:
                    futures = {
                        worker_pool.submit(_execute_point, point): index
                        for index, point in zip(execute, todo)
                    }
                    for future in as_completed(futures):
                        index = futures[future]
                        payload = future.result()
                        experiment_id, kwargs = points[index]
                        if use_cache:
                            self._cache_store(
                                digests[index], experiment_id, kwargs, payload
                            )
                        results[index] = ExperimentResult.from_dict(payload)

        if use_cache:
            # Resolve intra-run duplicates from their representative's result.
            for index, digest in enumerate(digests):
                if results[index] is None:
                    results[index] = results[first_index_by_digest[digest]]

        return SweepOutcome(
            results=[result for result in results if result is not None],
            cache_hits=len(points) - len(execute),
            cache_misses=len(execute),
            elapsed_s=time.perf_counter() - started,
            processes=workers,
            point_hashes=digests,
        )
