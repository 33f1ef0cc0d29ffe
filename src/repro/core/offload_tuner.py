"""DeepRecSched-GPU: accelerator query-size-threshold tuning.

The second half of the DeepRecSched algorithm (Section IV-C): with the CPU
batch size fixed by :class:`~repro.core.batch_tuner.BatchSizeTuner`, start
from a unit query-size threshold (every query offloaded to the accelerator)
and hill-climb over increasing thresholds — shrinking the share of work on
the accelerator — until the latency-bounded throughput stops improving.

:class:`FleetKnobTuner` lifts the same tuning loop to a whole fleet: it
co-tunes the fleet-wide batch size with the load-balancing policy (and,
for accelerator-attached fleets, the offload threshold) against the
cluster's QPS-at-SLA capacity via coordinate descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.hill_climber import (
    ClimbResult,
    DescentResult,
    coordinate_descent,
    hill_climb,
    power_of_two_candidates,
)
from repro.execution.engine import EnginePair
from repro.queries.generator import LoadGenerator
from repro.queries.size_dist import MAX_QUERY_SIZE
from repro.runtime.capacity import CapacityCache, CapacitySearch
from repro.serving.cluster import ClusterServer, available_balancers, get_balancer
from repro.serving.simulator import ServingConfig, SimulationResult
from repro.utils.validation import check_positive


def offload_threshold_candidates(max_threshold: int = MAX_QUERY_SIZE) -> List[int]:
    """The DeepRecSched threshold ladder: unit threshold, then powers of two.

    Starts at 1 (every query offloaded, exactly as Section IV-C describes)
    and climbs through power-of-two thresholds from 16 up; thresholds in
    (1, 16) sit below the bulk of the query-size distribution and route
    essentially everything to the accelerator, so the ladder skips them.
    Shared by the single-server and fleet tuners so their search spaces
    cannot diverge.
    """
    check_positive("max_threshold", max_threshold)
    return [1] + power_of_two_candidates(16, max_threshold)


@dataclass(frozen=True)
class OffloadTuningResult:
    """Outcome of one query-size-threshold tuning run."""

    best_threshold: int
    best_qps: float
    batch_size: int
    sla_latency_s: float
    qps_by_threshold: Dict[int, float]
    gpu_work_fraction: float

    @property
    def num_evaluations(self) -> int:
        """Number of thresholds the hill climb evaluated."""
        return len(self.qps_by_threshold)


class OffloadThresholdTuner:
    """Hill-climbing query-size-threshold tuner (the GPU half of DeepRecSched)."""

    def __init__(
        self,
        engines: EnginePair,
        load_generator: LoadGenerator,
        num_cores: int = 0,
        num_queries: int = 800,
        capacity_iterations: int = 6,
        max_threshold: int = MAX_QUERY_SIZE,
        patience: int = 4,
    ) -> None:
        if not engines.has_accelerator:
            raise ValueError("offload tuning requires an accelerator engine")
        check_positive("num_queries", num_queries)
        check_positive("capacity_iterations", capacity_iterations)
        check_positive("max_threshold", max_threshold)
        self._engines = engines
        self._load_generator = load_generator
        self._num_cores = num_cores
        self._num_queries = num_queries
        self._capacity_iterations = capacity_iterations
        self._max_threshold = max_threshold
        self._patience = patience

    def candidates(self) -> List[int]:
        """Threshold candidates explored by the hill climb.

        See :func:`offload_threshold_candidates` for the ladder's rationale.
        """
        return offload_threshold_candidates(self._max_threshold)

    def _evaluate(
        self, threshold: int, batch_size: int, sla_latency_s: float
    ) -> tuple:
        config = ServingConfig(
            batch_size=batch_size,
            num_cores=self._num_cores,
            offload_threshold=threshold,
        )
        outcome = CapacitySearch.for_server(
            self._engines,
            config,
            sla_latency_s,
            self._load_generator,
            num_queries=self._num_queries,
            iterations=self._capacity_iterations,
        ).run()
        return outcome.max_qps, outcome.result

    def tune(self, batch_size: int, sla_latency_s: float) -> OffloadTuningResult:
        """Run the hill climb over thresholds at a fixed CPU batch size."""
        check_positive("batch_size", batch_size)
        check_positive("sla_latency_s", sla_latency_s)
        results: Dict[int, Optional[SimulationResult]] = {}

        def objective(threshold: int) -> float:
            qps, result = self._evaluate(threshold, batch_size, sla_latency_s)
            results[threshold] = result
            return qps

        climb: ClimbResult = hill_climb(
            self.candidates(), objective, patience=self._patience
        )
        best_result = results.get(climb.best_candidate)
        gpu_fraction = best_result.gpu_work_fraction if best_result is not None else 0.0
        return OffloadTuningResult(
            best_threshold=climb.best_candidate,
            best_qps=climb.best_value,
            batch_size=batch_size,
            sla_latency_s=sla_latency_s,
            qps_by_threshold=climb.as_dict(),
            gpu_work_fraction=gpu_fraction,
        )


@dataclass(frozen=True)
class FleetTuningResult:
    """Outcome of one fleet-wide knob tuning run."""

    best_batch_size: int
    best_policy: str
    best_threshold: Optional[int]
    best_qps: float
    sla_latency_s: float
    evaluations: Tuple[Tuple[Dict[str, Any], float], ...]

    @property
    def num_evaluations(self) -> int:
        """Number of distinct knob assignments evaluated."""
        return len(self.evaluations)


class FleetKnobTuner:
    """Coordinate-descent tuner for fleet-wide serving knobs.

    Tunes the per-server batch size together with the load-balancing policy
    (and the offload threshold, when any server has an accelerator) to
    maximise the fleet's latency-bounded throughput.  The objective of every
    knob assignment is one fleet
    :class:`~repro.runtime.capacity.CapacitySearch`, so tuned knobs account
    for balancing losses, not just per-server throughput.

    The descent is sequential: each assignment's search runs in the caller's
    process once the descent visits it.  With ``warm_start_cache``, each
    :meth:`tune` call opens one
    :class:`~repro.runtime.capacity.CapacityCache` on that directory for all
    of its searches, so a later run sharing the directory replays identical
    searches bit-identically.
    """

    def __init__(
        self,
        engines_per_server: Sequence[EnginePair],
        load_generator: LoadGenerator,
        num_cores: int = 0,
        num_queries: int = 400,
        capacity_iterations: int = 4,
        batch_candidates: Optional[Sequence[int]] = None,
        policies: Optional[Sequence[str]] = None,
        threshold_candidates: Optional[Sequence[int]] = None,
        sweeps: int = 2,
        patience: int = 2,
        warm_start_cache: Union[str, Path, None] = None,
    ) -> None:
        if not engines_per_server:
            raise ValueError("fleet tuning requires at least one server")
        check_positive("num_queries", num_queries)
        check_positive("capacity_iterations", capacity_iterations)
        check_positive("sweeps", sweeps)
        check_positive("patience", patience)
        self._engines = list(engines_per_server)
        self._load_generator = load_generator
        self._num_cores = num_cores
        self._num_queries = num_queries
        self._capacity_iterations = capacity_iterations
        self._batch_candidates = (
            list(batch_candidates)
            if batch_candidates is not None
            else power_of_two_candidates(64, 1024)
        )
        self._policies = list(policies) if policies is not None else available_balancers()
        for name, values in (
            ("batch_candidates", self._batch_candidates),
            ("policies", self._policies),
        ):
            if not values:
                raise ValueError(f"{name} must not be empty")
        for policy in self._policies:
            get_balancer(policy)  # an unknown name raises KeyError here
        self._has_accelerator = any(pair.has_accelerator for pair in self._engines)
        if threshold_candidates is not None and not self._has_accelerator:
            raise ValueError(
                "threshold_candidates given but no server has an accelerator"
            )
        if threshold_candidates is not None:
            self._threshold_candidates: Optional[List[int]] = list(threshold_candidates)
        elif self._has_accelerator:
            self._threshold_candidates = offload_threshold_candidates()
        else:
            self._threshold_candidates = None
        self._sweeps = sweeps
        self._patience = patience
        self._warm_start_cache = warm_start_cache

    def _fleet(self, knobs: Dict[str, Any]) -> List[ClusterServer]:
        """The fleet one knob assignment describes."""
        threshold = knobs.get("offload_threshold")
        servers = []
        for index, engines in enumerate(self._engines):
            config = ServingConfig(
                batch_size=knobs["batch_size"],
                num_cores=self._num_cores,
                offload_threshold=threshold if engines.has_accelerator else None,
            )
            servers.append(
                ClusterServer(engines=engines, config=config, name=f"server-{index}")
            )
        return servers

    def _capacity(
        self,
        knobs: Dict[str, Any],
        sla_latency_s: float,
        cache: Optional[CapacityCache],
    ) -> float:
        """Objective of one knob assignment: the fleet's capacity at the SLA."""
        outcome = CapacitySearch.for_fleet(
            self._fleet(knobs),
            knobs["policy"],
            sla_latency_s,
            self._load_generator,
            num_queries=self._num_queries,
            iterations=self._capacity_iterations,
        ).run(warm_start_cache=cache)
        return outcome.max_qps

    def tune(self, sla_latency_s: float) -> FleetTuningResult:
        """Co-tune the fleet knobs and return the best assignment found."""
        check_positive("sla_latency_s", sla_latency_s)
        candidates: Dict[str, Sequence[Any]] = {
            "batch_size": self._batch_candidates,
            "policy": self._policies,
        }
        if self._threshold_candidates is not None:
            candidates["offload_threshold"] = self._threshold_candidates
        # One instance for every search of this run: its in-process memo
        # only pays off across searches that share the instance.
        cache = (
            CapacityCache(self._warm_start_cache)
            if self._warm_start_cache is not None
            else None
        )
        descent: DescentResult = coordinate_descent(
            candidates,
            lambda knobs: self._capacity(knobs, sla_latency_s, cache),
            sweeps=self._sweeps,
            patience=self._patience,
        )
        return FleetTuningResult(
            best_batch_size=descent.best_knobs["batch_size"],
            best_policy=descent.best_knobs["policy"],
            best_threshold=descent.best_knobs.get("offload_threshold"),
            best_qps=descent.best_value,
            sla_latency_s=sla_latency_s,
            evaluations=tuple(descent.evaluations),
        )
