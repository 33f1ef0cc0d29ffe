"""Single-request CPU inference engine (latency model).

Given a recommendation model, a CPU platform, a per-request batch size, and
the number of concurrently active cores, the engine estimates the latency of
one inference request running on one core.  Each operator contributes
``max(compute_time, memory_time) + dispatch_overhead``, where

* compute time uses the core's peak FLOP rate derated by a batch-dependent
  efficiency curve — the SIMD curve for dense operators (wider vector units
  need larger batches) and a flat curve for recurrent cells (GRUs gain little
  from batching),
* memory time splits regular (streaming) from irregular (gather) traffic,
  applies per-access-pattern effective-bandwidth curves, shares the socket
  bandwidth across active cores, and applies the cache-contention factor of
  the platform's LLC policy.  Dense-layer weights are served from the LLC
  (rather than DRAM) when the model's non-embedding weight footprint fits —
  which it does on Skylake's larger LLC for DLRM-RMC3 but not on Broadwell's.
  That makes Skylake the faster platform for DLRM-RMC3, so its optimal batch
  comes out larger on Skylake, the reverse of the paper's Fig. 12(c)
  ordering (``docs/claims.md``, Known deviations),
* the dispatch overhead models framework/per-operator launch cost, which is
  what makes very small batches (and therefore very many requests per query)
  unattractive.

The same engine also produces the per-operator-category time breakdown used
for Fig. 3 and Fig. 6.

Each formula is written once, over a float64 vector of batch sizes: the
engine's :class:`~repro.execution.latency_table.CPULatencyTable` prices a
whole column in one call, and the scalar API reads that column (a batch past
:data:`~repro.execution.latency_table.MAX_SCALAR_COLUMN_SIZE` is priced alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.execution.efficiency import (
    irregular_access_curve,
    recurrent_efficiency_curve,
    regular_access_curve,
    simd_efficiency_curve,
)
from repro.hardware.cpu import CPUPlatform
from repro.models.base import RecommendationModel
from repro.models.ops import OperatorCategory
from repro.utils.validation import check_non_negative, check_positive

#: Ratio of on-chip (LLC) bandwidth to a core's DRAM bandwidth share.
LLC_BANDWIDTH_MULTIPLIER = 6.0

#: Fraction of the LLC the non-embedding weights may occupy and still be
#: considered cache-resident (the rest holds activations and embedding rows).
LLC_RESIDENCY_FRACTION = 0.8

#: One operator's ``(compute_s, regular_bytes, llc_s, irregular_bytes)`` over a
#: batch vector (see :meth:`CPUEngine.batch_terms`).
OperatorTerms = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: Regular- and irregular-access efficiency plus every operator's terms.
BatchTerms = Tuple[np.ndarray, np.ndarray, List[OperatorTerms]]


@dataclass(frozen=True)
class RequestLatency:
    """Latency of one request, split into compute/memory/overhead components."""

    compute_s: float
    memory_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        """End-to-end request latency in seconds."""
        return self.compute_s + self.memory_s + self.overhead_s


class CPUEngine:
    """Latency model for recommendation inference on one CPU core."""

    def __init__(
        self,
        model: RecommendationModel,
        platform: CPUPlatform,
        per_operator_overhead_s: float = 20e-6,
        per_request_overhead_s: float = 120e-6,
    ) -> None:
        check_non_negative("per_operator_overhead_s", per_operator_overhead_s)
        check_non_negative("per_request_overhead_s", per_request_overhead_s)
        self._model = model
        self._platform = platform
        self._per_operator_overhead_s = per_operator_overhead_s
        self._per_request_overhead_s = per_request_overhead_s
        self._simd_curve = simd_efficiency_curve(platform.simd_width_bits)
        self._recurrent_curve = recurrent_efficiency_curve()
        self._regular_curve = regular_access_curve()
        self._irregular_curve = irregular_access_curve()
        self._weights_llc_resident = self._fits_in_llc(model, platform)
        # Dense latency columns, filled lazily; the scalar API reads them.
        from repro.execution.latency_table import CPULatencyTable

        self._table = CPULatencyTable(self)

    @staticmethod
    def _fits_in_llc(model: RecommendationModel, platform: CPUPlatform) -> bool:
        """True when the model's non-embedding weights fit in the LLC."""
        dense_weight_bytes = sum(
            op.weight_bytes()
            for op in model.operators()
            if op.category is not OperatorCategory.EMBEDDING
        )
        return dense_weight_bytes <= LLC_RESIDENCY_FRACTION * platform.cache.llc_bytes

    @property
    def model(self) -> RecommendationModel:
        """The model whose latency this engine estimates."""
        return self._model

    @property
    def platform(self) -> CPUPlatform:
        """The CPU platform the model runs on."""
        return self._platform

    @property
    def weights_llc_resident(self) -> bool:
        """True when dense-layer weights are served from the LLC, not DRAM."""
        return self._weights_llc_resident

    @property
    def latency_table(self):
        """The engine's dense :class:`~repro.execution.latency_table.CPULatencyTable`.

        :meth:`request_latency` and :meth:`request_latency_s` read it; the
        serving simulators index its columns directly.
        """
        return self._table

    # ------------------------------------------------------------------ #

    def _core_bandwidth(self, active_cores: int) -> float:
        """Effective DRAM bandwidth available to one core, bytes/s.

        A lone core is limited by its own load/store capability
        (``per_core_bandwidth``); with many active cores, the socket bandwidth
        is shared and the LLC contention factor of the platform's inclusion
        policy is applied on top.
        """
        platform = self._platform
        fair_share = platform.memory_bandwidth / active_cores
        bandwidth = min(platform.per_core_bandwidth, fair_share)
        contention = platform.cache.contention_factor(active_cores, platform.num_cores)
        return bandwidth / contention

    def batch_terms(self, batch: np.ndarray) -> BatchTerms:
        """The part of each operator's price that does not depend on active cores.

        ``batch`` is a float64 vector of batch sizes.  Returns the regular-
        and irregular-access efficiency over ``batch`` and, per operator in
        graph order, ``(compute_s, regular_bytes, llc_s, irregular_bytes)``:
        compute seconds, bytes streamed from DRAM, seconds spent re-reading
        LLC-resident dense weights, and gathered bytes.  A latency table
        computes these once per column size and prices every core count from
        them with :meth:`request_components`.
        """
        platform = self._platform
        simd = self._simd_curve(batch)
        recurrent = self._recurrent_curve(batch)
        regular_eff = self._regular_curve(batch)
        llc_bandwidth = platform.per_core_bandwidth * LLC_BANDWIDTH_MULTIPLIER
        operators = []
        for op in self._model.operators():
            cost = op.cost(batch)
            efficiency = recurrent if op.category is OperatorCategory.RECURRENT else simd
            compute_s = cost.flops / (platform.per_core_peak_flops * efficiency)
            regular_bytes = cost.regular_bytes
            llc_bytes = 0.0
            if (
                self._weights_llc_resident
                and op.category is not OperatorCategory.EMBEDDING
            ):
                # Dense weights are re-read from the LLC, not DRAM.
                llc_bytes = np.minimum(op.weight_bytes(), regular_bytes)
                regular_bytes = regular_bytes - llc_bytes
            llc_s = llc_bytes / (llc_bandwidth * regular_eff)
            operators.append((compute_s, regular_bytes, llc_s, cost.irregular_bytes))
        return regular_eff, self._irregular_curve(batch), operators

    @staticmethod
    def _operator_latency(
        terms: OperatorTerms, regular_rate: np.ndarray, irregular_rate: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compute and memory seconds of one operator from its batch terms.

        ``regular_rate`` and ``irregular_rate`` are the core's DRAM bandwidth
        times the regular- and irregular-access efficiency.
        """
        compute_s, regular_bytes, llc_s, irregular_bytes = terms
        memory_s = regular_bytes / regular_rate + llc_s + irregular_bytes / irregular_rate
        # The slower resource dominates but the other is partially hidden
        # rather than free (imperfect overlap on an out-of-order core).
        dominant = np.maximum(compute_s, memory_s)
        hidden = np.minimum(compute_s, memory_s)
        total = dominant + 0.2 * hidden
        compute_dominates = compute_s >= memory_s
        compute_part = np.where(compute_dominates, compute_s, total - memory_s)
        memory_part = np.where(compute_dominates, total - compute_s, memory_s)
        return compute_part, memory_part

    def request_components(
        self, terms: BatchTerms, active_cores: int
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Compute, memory and overhead seconds of one request over a batch vector.

        ``terms`` is :meth:`batch_terms` of a float64 vector of batch sizes
        and ``active_cores`` the number of cores concurrently executing
        requests (including this one), already capped at the platform's core
        count; it controls bandwidth sharing and cache contention.  The
        overhead does not depend on the batch.  With :meth:`batch_terms` this
        is the one CPU pricing formula: the latency table calls both on
        ``np.arange(1, n + 1)``.
        """
        regular_eff, irregular_eff, operators = terms
        dram_bandwidth = self._core_bandwidth(active_cores)
        regular_rate = dram_bandwidth * regular_eff
        irregular_rate = dram_bandwidth * irregular_eff
        compute = memory = overhead = 0.0
        for operator_terms in operators:
            compute_part, memory_part = self._operator_latency(
                operator_terms, regular_rate, irregular_rate
            )
            compute = compute + compute_part
            memory = memory + memory_part
            overhead += self._per_operator_overhead_s
        return compute, memory, overhead + self._per_request_overhead_s

    # ------------------------------------------------------------------ #

    def request_latency(self, batch_size: int, active_cores: int = 1) -> RequestLatency:
        """Latency of one request of ``batch_size`` items on one core.

        ``active_cores`` is the number of cores concurrently executing
        requests (including this one); it controls bandwidth sharing and
        cache contention.
        """
        check_positive("batch_size", batch_size)
        check_positive("active_cores", active_cores)
        compute, memory, overhead = self._table.components(batch_size, active_cores)
        return RequestLatency(compute_s=compute, memory_s=memory, overhead_s=overhead)

    def request_latency_s(self, batch_size: int, active_cores: int = 1) -> float:
        """Scalar request latency in seconds."""
        check_positive("batch_size", batch_size)
        check_positive("active_cores", active_cores)
        return self._table.total_s(batch_size, active_cores)

    def operator_breakdown(
        self, batch_size: int, active_cores: int = 1
    ) -> Dict[OperatorCategory, float]:
        """Time per operator category for one request (seconds).

        This is the quantity plotted (as fractions) in Fig. 3.
        """
        check_positive("batch_size", batch_size)
        check_positive("active_cores", active_cores)
        regular_eff, irregular_eff, operators = self.batch_terms(
            np.array([batch_size], dtype=np.float64)
        )
        dram_bandwidth = self._core_bandwidth(min(active_cores, self._platform.num_cores))
        regular_rate = dram_bandwidth * regular_eff
        irregular_rate = dram_bandwidth * irregular_eff
        breakdown: Dict[OperatorCategory, float] = {}
        for op, terms in zip(self._model.operators(), operators):
            compute, memory = self._operator_latency(terms, regular_rate, irregular_rate)
            latency = float(compute[0] + memory[0]) + self._per_operator_overhead_s
            breakdown[op.category] = breakdown.get(op.category, 0.0) + latency
        return breakdown

    def throughput_items_per_s(self, batch_size: int, active_cores: int = 1) -> float:
        """Items per second one core sustains at ``batch_size``."""
        return batch_size / self.request_latency_s(batch_size, active_cores)
