"""Precomputed latency tables — the execution fast path.

The serving simulators price a request once per dispatch, millions of times
per sweep.  The tables here hold *dense* latency columns — request latency
over batch size for each active-core count on the CPU, end-to-end query
latency over query size on the GPU — so the hot loop indexes a plain Python
list instead of re-entering the latency model.

Exactness contract
------------------
Each pricing formula is written once, over a batch that is a number or a
float64 vector: the operator costs (:mod:`repro.models.ops`), the efficiency
curves, :meth:`CPUEngine.request_components
<repro.execution.cpu_engine.CPUEngine.request_components>` (over
:meth:`~repro.execution.cpu_engine.CPUEngine.batch_terms`) and
:meth:`GPUEngine.query_components
<repro.execution.gpu_engine.GPUEngine.query_components>`.  A table builds a
column by calling that formula once on ``np.arange(1, n + 1)`` and caches
the result; the engines' scalar API (``request_latency``,
``request_latency_s``, ``query_latency``, ``query_latency_s``) reads the same
column, so a table entry and a scalar call are one value.  Every integer
byte/FLOP count stays far below 2**53, so pricing in float64 is exact.
``tests/test_pricing_golden.py`` pins every entry for the model zoo.

Tables are created empty at engine construction and filled lazily, one
active-core column (CPU) or one size range (GPU) at a time, on first use.
Each column is sized to the next power of two (at least 64), so probes at
growing sizes do not rebuild once per new size.  A scalar lookup past
:data:`MAX_SCALAR_COLUMN_SIZE` prices that one size on a one-element vector
instead of growing the column to it; the formula is elementwise, so the
price is the value the column would hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.execution.cpu_engine import BatchTerms, CPUEngine
    from repro.execution.gpu_engine import GPUEngine


#: Largest size a scalar lookup reads from (and so builds) the cached column;
#: the pricing golden pins every size up to it.
MAX_SCALAR_COLUMN_SIZE = 4096


def _one_size(size: int) -> np.ndarray:
    """A one-element float64 batch vector holding ``size``."""
    return np.array([size], dtype=np.float64)


def _column_size(max_size: int) -> int:
    """Entries to build so that sizes ``1..max_size`` are covered."""
    return 1 << max(6, int(max_size).bit_length())


class CPULatencyTable:
    """Dense request-latency columns for one :class:`CPUEngine`.

    One column per active-core count, indexed by batch size (index 0 unused).
    Columns are plain Python lists so the event loop's lookup is a single
    ``column[batch]`` index.  Alongside each column the table keeps the
    compute and memory component vectors it was summed from, which
    :meth:`CPUEngine.request_latency` reads.  The batch-only part of the
    price (:meth:`CPUEngine.batch_terms`) is kept for the latest column
    size, so each further core count costs only its bandwidth-dependent part.
    """

    __slots__ = ("_engine", "_columns", "_components", "_terms", "_entries_built")

    def __init__(self, engine: "CPUEngine") -> None:
        self._engine = engine
        self._columns: Dict[int, List[float]] = {}
        # cores -> (compute, memory, overhead) the column was summed from.
        self._components: Dict[int, Tuple[np.ndarray, np.ndarray, float]] = {}
        # (column size, engine.batch_terms over 1..size) of the latest build.
        self._terms: Tuple[int, "BatchTerms"] = (0, (np.empty(0), np.empty(0), []))
        self._entries_built = 0

    @property
    def entries_built(self) -> int:
        """Total table entries materialised so far (across all columns)."""
        return self._entries_built

    def column(self, max_batch: int, active_cores: int) -> List[float]:
        """Totals list for ``active_cores``, valid for batches ``1..max_batch``.

        The returned list has ``len > max_batch`` and is shared/cached, so
        callers must treat it as read-only.
        """
        engine = self._engine
        cores = min(active_cores, engine.platform.num_cores)
        column = self._columns.get(cores)
        if column is None or len(column) <= max_batch:
            size = _column_size(max_batch)
            if self._terms[0] != size:
                batch = np.arange(1, size + 1, dtype=np.float64)
                self._terms = (size, engine.batch_terms(batch))
            compute, memory, overhead = engine.request_components(self._terms[1], cores)
            column = [float("nan")] + ((compute + memory) + overhead).tolist()
            self._columns[cores] = column
            self._components[cores] = (compute, memory, overhead)
            self._entries_built += size
        return column

    def total_s(self, batch_size: int, active_cores: int = 1) -> float:
        """Request latency at ``batch_size`` on ``active_cores`` (see :meth:`components`)."""
        if batch_size > MAX_SCALAR_COLUMN_SIZE:
            compute, memory, overhead = self.components(batch_size, active_cores)
            return (compute + memory) + overhead
        return self.column(batch_size, active_cores)[batch_size]

    def components(self, batch_size: int, active_cores: int = 1) -> Tuple[float, float, float]:
        """``(compute_s, memory_s, overhead_s)`` at ``batch_size``; they sum to the entry.

        Read from the column up to :data:`MAX_SCALAR_COLUMN_SIZE`; a larger
        batch is priced alone, leaving the column as it is.
        """
        engine = self._engine
        cores = min(active_cores, engine.platform.num_cores)
        if batch_size > MAX_SCALAR_COLUMN_SIZE:
            terms = engine.batch_terms(_one_size(batch_size))
            compute, memory, overhead = engine.request_components(terms, cores)
            return float(compute[0]), float(memory[0]), overhead
        self.column(batch_size, active_cores)
        compute, memory, overhead = self._components[cores]
        return float(compute[batch_size - 1]), float(memory[batch_size - 1]), overhead


class ScaledLatencyTable:
    """A speed-scaled, read-only view of another CPU latency table.

    Heterogeneous-fleet nodes (see
    :class:`~repro.execution.scaled_engine.ScaledCPUEngine`) are modelled as a
    nominal engine whose latencies are multiplied by a per-node
    ``speed_factor``.  Rather than rebuilding a full table per node, this view
    wraps the *base* engine's table and scales each column once on first use:
    every entry is **exactly** ``speed_factor *`` the base entry (one float64
    multiply, no re-derivation), so fleets of scaled nodes share one base
    table build and still ride the dense fast path.

    Scaled columns are cached per requested core count and invalidated
    automatically when the base table grows a column (the base returns a new
    list object when it rebuilds).
    """

    __slots__ = ("_base", "_speed_factor", "_columns")

    def __init__(self, base: "CPULatencyTable", speed_factor: float) -> None:
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be > 0, got {speed_factor}")
        self._base = base
        self._speed_factor = speed_factor
        # active_cores -> (base column the scale was taken from, scaled column)
        self._columns: Dict[int, Tuple[List[float], List[float]]] = {}

    @property
    def speed_factor(self) -> float:
        """Multiplier applied to every base entry."""
        return self._speed_factor

    @property
    def entries_built(self) -> int:
        """Entries materialised by the underlying base table."""
        return self._base.entries_built

    def column(self, max_batch: int, active_cores: int) -> List[float]:
        """Scaled totals list for ``active_cores``, valid for batches ``1..max_batch``.

        Shared/cached like the base table's columns — treat it as read-only.
        """
        base_column = self._base.column(max_batch, active_cores)
        cached = self._columns.get(active_cores)
        if cached is not None and cached[0] is base_column:
            return cached[1]
        factor = self._speed_factor
        scaled = [value * factor for value in base_column]
        self._columns[active_cores] = (base_column, scaled)
        return scaled

    def total_s(self, batch_size: int, active_cores: int = 1) -> float:
        """Scalar lookup; exactly ``speed_factor *`` the base table's entry."""
        if batch_size > MAX_SCALAR_COLUMN_SIZE:
            return self._base.total_s(batch_size, active_cores) * self._speed_factor
        return self.column(batch_size, active_cores)[batch_size]


class GPULatencyTable:
    """Dense query-latency column for one :class:`GPUEngine`, by query size.

    Alongside the totals list (index 0 unused) the table keeps the
    data-loading and kernel vectors it was summed from, which
    :meth:`GPUEngine.query_latency` reads.
    """

    __slots__ = ("_engine", "_totals", "_components", "_entries_built")

    def __init__(self, engine: "GPUEngine") -> None:
        self._engine = engine
        self._totals: List[float] = []
        self._components: Tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))
        self._entries_built = 0

    @property
    def entries_built(self) -> int:
        """Total table entries materialised so far."""
        return self._entries_built

    def totals(self, max_size: int) -> List[float]:
        """Totals list valid for query sizes ``1..max_size`` (index 0 unused)."""
        if len(self._totals) <= max_size:
            size = _column_size(max_size)
            sizes = np.arange(1, size + 1, dtype=np.float64)
            data_loading, kernel = self._engine.query_components(sizes)
            self._totals = [float("nan")] + (data_loading + kernel).tolist()
            self._components = (data_loading, kernel)
            self._entries_built += size
        return self._totals

    def total_s(self, query_size: int) -> float:
        """End-to-end latency of a ``query_size`` query (see :meth:`components`)."""
        if query_size > MAX_SCALAR_COLUMN_SIZE:
            data_loading, kernel = self.components(query_size)
            return data_loading + kernel
        return self.totals(query_size)[query_size]

    def components(self, query_size: int) -> Tuple[float, float]:
        """``(data_loading_s, kernel_s)`` at ``query_size``; they sum to the entry.

        Read from the column up to :data:`MAX_SCALAR_COLUMN_SIZE`; a larger
        size is priced alone, leaving the column as it is.
        """
        if query_size > MAX_SCALAR_COLUMN_SIZE:
            data_loading, kernel = self._engine.query_components(_one_size(query_size))
            return float(data_loading[0]), float(kernel[0])
        self.totals(query_size)
        data_loading, kernel = self._components
        return float(data_loading[query_size - 1]), float(kernel[query_size - 1])
