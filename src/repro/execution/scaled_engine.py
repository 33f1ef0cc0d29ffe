"""Per-node speed-scaled CPU engine for heterogeneous fleets.

Production fleets are heterogeneous even within a platform generation (DVFS,
memory population, co-located workloads).  :class:`ScaledCPUEngine` wraps a
nominal :class:`~repro.execution.cpu_engine.CPUEngine` and multiplies its
latencies by a per-node ``speed_factor`` — a node with ``speed_factor=1.05``
is 5 % slower than nominal.

The wrapper exposes a ``latency_table`` (a
:class:`~repro.execution.latency_table.ScaledLatencyTable` view over the base
engine's table) so the serving kernels index a dense scaled column like any
other engine's: a fleet of scaled nodes shares one base-table build.
"""

from __future__ import annotations

from repro.execution.cpu_engine import CPUEngine, RequestLatency
from repro.execution.latency_table import ScaledLatencyTable
from repro.utils.validation import check_positive


class ScaledCPUEngine:
    """A CPU engine whose latencies are scaled by a per-node speed factor."""

    def __init__(self, engine: CPUEngine, speed_factor: float = 1.0) -> None:
        check_positive("speed_factor", speed_factor)
        self._engine = engine
        self._speed_factor = speed_factor
        self._table = ScaledLatencyTable(engine.latency_table, speed_factor)

    @property
    def platform(self):
        """The underlying platform (unscaled)."""
        return self._engine.platform

    @property
    def model(self):
        """The model served by this node."""
        return self._engine.model

    @property
    def base_engine(self) -> CPUEngine:
        """The nominal engine this node scales."""
        return self._engine

    @property
    def speed_factor(self) -> float:
        """Latency multiplier applied to the nominal engine."""
        return self._speed_factor

    @property
    def latency_table(self) -> ScaledLatencyTable:
        """Dense scaled view of the base engine's latency table.

        Entries are exactly ``speed_factor *`` the base table's entries, and
        :meth:`request_latency_s` matches the table bit-for-bit.
        """
        return self._table

    def request_latency(self, batch_size: int, active_cores: int = 1) -> RequestLatency:
        """Scaled per-request latency components.

        Each component is scaled individually; their float64 sum may differ
        from :meth:`request_latency_s` (which scales the nominal total in one
        multiply, matching the latency table exactly) by one last-place unit.
        """
        nominal = self._engine.request_latency(batch_size, active_cores)
        factor = self._speed_factor
        return RequestLatency(
            compute_s=nominal.compute_s * factor,
            memory_s=nominal.memory_s * factor,
            overhead_s=nominal.overhead_s * factor,
        )

    def request_latency_s(self, batch_size: int, active_cores: int = 1) -> float:
        """Scaled scalar request latency; bit-identical to the latency table."""
        return self._engine.request_latency_s(batch_size, active_cores) * self._speed_factor
