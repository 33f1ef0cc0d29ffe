"""DeepRecSched-CPU: per-request batch-size tuning.

Implements the first half of the DeepRecSched algorithm (Section IV-C): start
from a unit batch size and hill-climb over increasing batch sizes, measuring
the latency-bounded throughput (max QPS under the p95 SLA) of each candidate
with the serving simulator, and stop once throughput degrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.hill_climber import ClimbResult, hill_climb, power_of_two_candidates
from repro.execution.engine import EnginePair
from repro.queries.generator import LoadGenerator
from repro.queries.size_dist import MAX_QUERY_SIZE
from repro.runtime.capacity import CapacitySearch
from repro.serving.simulator import ServingConfig
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BatchTuningResult:
    """Outcome of one batch-size tuning run."""

    best_batch_size: int
    best_qps: float
    sla_latency_s: float
    qps_by_batch_size: Dict[int, float]

    @property
    def num_evaluations(self) -> int:
        """Number of batch sizes the hill climb evaluated."""
        return len(self.qps_by_batch_size)


class BatchSizeTuner:
    """Hill-climbing batch-size tuner (the CPU half of DeepRecSched)."""

    def __init__(
        self,
        engines: EnginePair,
        load_generator: LoadGenerator,
        num_cores: int = 0,
        num_queries: int = 800,
        capacity_iterations: int = 6,
        min_batch_size: int = 1,
        max_batch_size: int = MAX_QUERY_SIZE,
        patience: int = 2,
    ) -> None:
        check_positive("num_queries", num_queries)
        check_positive("capacity_iterations", capacity_iterations)
        check_positive("min_batch_size", min_batch_size)
        check_positive("max_batch_size", max_batch_size)
        if max_batch_size < min_batch_size:
            raise ValueError(
                f"max_batch_size {max_batch_size} < min_batch_size {min_batch_size}"
            )
        self._engines = engines
        self._load_generator = load_generator
        self._num_cores = num_cores
        self._num_queries = num_queries
        self._capacity_iterations = capacity_iterations
        self._min_batch_size = min_batch_size
        self._max_batch_size = max_batch_size
        self._patience = patience

    def candidates(self) -> List[int]:
        """Batch-size candidates explored by the hill climb (powers of two)."""
        return power_of_two_candidates(self._min_batch_size, self._max_batch_size)

    def capacity_at(self, batch_size: int, sla_latency_s: float) -> float:
        """Max QPS under the SLA at one batch size (a single objective evaluation)."""
        config = ServingConfig(batch_size=batch_size, num_cores=self._num_cores)
        outcome = CapacitySearch.for_server(
            self._engines,
            config,
            sla_latency_s,
            self._load_generator,
            num_queries=self._num_queries,
            iterations=self._capacity_iterations,
        ).run()
        return outcome.max_qps

    def tune(self, sla_latency_s: float) -> BatchTuningResult:
        """Run the hill climb and return the best batch size with its QPS."""
        check_positive("sla_latency_s", sla_latency_s)
        climb: ClimbResult = hill_climb(
            self.candidates(),
            lambda batch: self.capacity_at(batch, sla_latency_s),
            patience=self._patience,
        )
        return BatchTuningResult(
            best_batch_size=climb.best_candidate,
            best_qps=climb.best_value,
            sla_latency_s=sla_latency_s,
            qps_by_batch_size=climb.as_dict(),
        )
