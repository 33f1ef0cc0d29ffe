"""Latency-bounded capacity search.

The paper's throughput metric is the largest sustainable query arrival rate
(QPS) whose measured p95 latency stays within the SLA target.  This module
holds the search's building blocks: the analytic upper bound that seeds the
bracket (:func:`estimate_upper_bound_qps`), the bisection's decision tree
(:class:`BisectionMachine`), and the warm-start store (:class:`CapacityCache`).
:class:`repro.runtime.capacity.CapacitySearch` drives them, running the
serving simulator at each candidate rate.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    Tuple,
    Union,
)

from repro.execution.engine import EnginePair
from repro.queries.size_dist import QuerySizeDistribution
from repro.serving.simulator import ServingConfig, SimulationResult
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one capacity search.

    ``result`` is the simulation outcome at the best sustainable rate — a
    :class:`SimulationResult` for single-server searches, or a
    :class:`~repro.serving.cluster.ClusterSimulationResult` for fleet
    searches (both expose the ``acceptable`` criterion the search uses).

    ``evaluations`` counts the simulator evaluations performed on behalf of
    this search: the rates the decision tree consumed plus any speculative
    evaluations a parallel search dispatched (so it can exceed the serial
    count), or 1 for a warm-start replay and 0 for an in-memory memo hit.
    It is observability metadata — two results that differ only in
    ``evaluations`` describe the same capacity.
    """

    max_qps: float
    sla_latency_s: float
    result: Optional[SimulationResult]
    evaluations: int = 0

    @property
    def feasible(self) -> bool:
        """False when even a near-zero load violates the SLA."""
        return self.result is not None


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


class BisectionMachine:
    """The capacity bisection's decision tree as an explicit state machine.

    The serial search walks one path through a binary decision tree: every
    evaluation's accept/reject verdict picks the next rate.  This class
    factors that tree out of the execution loop — :meth:`next_rate` is the
    rate the search needs now, :meth:`advance` consumes its verdict — so the
    *same* decisions can be driven serially, speculatively (cloning the
    machine down both branches enumerates every rate the next few verdicts
    could require, see :func:`speculative_rates`), or completion-driven over
    a pool of in-flight evaluations.

    The tree: raise the initial ``upper_qps`` by ×1.6 (at most three times)
    until it misses the SLA, probe ``upper / 64`` (and a near-zero trickle
    rate if even that misses), then bisect ``iterations`` times, reporting
    the last accepted rate.  The machine consumes exactly the rate sequence
    of a plain serial bisection loop (property tested against one), so
    however the evaluations are scheduled, the final bracket and result are
    those of the serial search.
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

    def clone(self) -> "BisectionMachine":
        """An independent copy (used to enumerate speculative branches)."""
        copy = BisectionMachine.__new__(BisectionMachine)
        for slot in BisectionMachine.__slots__:
            setattr(copy, slot, getattr(self, slot))
        return copy

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


def speculative_rates(machine: BisectionMachine, limit: int) -> List[float]:
    """Up to ``limit`` rates the machine's next few verdicts could require.

    Breadth-first over the decision tree's branches: the first entry is
    always the rate the machine needs *now*; later entries are rates that
    become the needed one under some combination of pending verdicts, so a
    parallel search keeps them in flight speculatively.  Shallower rates —
    needed sooner, under fewer assumptions — come first, which is the order
    a bounded pipeline should fill in.
    """
    if limit <= 0:
        return []
    rates: List[float] = []
    seen: set = set()
    frontier = [machine]
    while frontier and len(rates) < limit:
        next_frontier: List[BisectionMachine] = []
        for state in frontier:
            rate = state.next_rate()
            if rate is None:
                continue
            if rate not in seen:
                seen.add(rate)
                rates.append(rate)
                if len(rates) >= limit:
                    break
            for outcome in (False, True):
                branch = state.clone()
                branch.advance(outcome)
                if not branch.done:
                    next_frontier.append(branch)
        frontier = next_frontier
    return rates


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

        A present-but-unreadable entry (truncated write, garbage JSON, a
        foreign file shape) is a plain miss — the search falls back to the
        cold path — but is additionally tallied in
        ``stats["corrupt_entries"]`` so cache rot is visible rather than
        silently masquerading as cold misses.
        """
        path = self._path(signature)
        max_qps = 0.0
        try:
            text = path.read_text()
        except OSError:
            pass  # no entry: an ordinary miss
        else:
            try:
                payload = json.loads(text)
                max_qps = float(payload["max_qps"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.stats["corrupt_entries"] += 1
        hit = max_qps > 0
        if count:
            self.stats["exact_hits" if hit else "exact_misses"] += 1
        return max_qps if hit else None

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

    def memo_load(self, signature: Dict[str, Any]) -> Optional["CapacityResult"]:
        """This instance's previously returned result for ``signature``."""
        result = self._memo.get(self.digest(signature))
        if result is not None:
            self.stats["memo_hits"] += 1
        return result

    def memo_store(self, signature: Dict[str, Any], result: "CapacityResult") -> None:
        """Remember a finished search's full result for this process."""
        self._memo[self.digest(signature)] = result


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
      signature, or a non-finite / non-positive capacity;
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
            max_qps = float(raw_qps)
            if not isinstance(signature, dict):
                raise TypeError("signature must be a dict")
            if not math.isfinite(max_qps) or max_qps <= 0:
                raise ValueError("capacity must be finite and positive")
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
