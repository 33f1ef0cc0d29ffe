"""GPU inference engine (latency model with explicit data-loading cost).

The paper finds that on a GTX-1080Ti class accelerator, transferring the
query's input features over PCIe consumes 60–80 % of end-to-end inference
time, and that the GPU only overtakes a CPU core above a per-model batch-size
crossover (Fig. 4).  :class:`GPUEngine` models one query processed on the GPU
as

``latency = data_loading + kernel``

where data loading is the PCIe transfer of dense features and embedding
indices plus a fixed staging overhead, and kernel time derates the device's
peak FLOP rate / memory bandwidth by an occupancy curve that saturates only
at large batch sizes, plus per-model kernel-launch overhead.

Both phases are written once, over a float64 vector of query sizes
(:meth:`GPUEngine.query_components`): the engine's
:class:`~repro.execution.latency_table.GPULatencyTable` prices a whole column
in one call, and the scalar API reads that column (a size past
:data:`~repro.execution.latency_table.MAX_SCALAR_COLUMN_SIZE` is priced alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.execution.efficiency import gpu_occupancy_curve
from repro.hardware.gpu import GPUPlatform
from repro.models.base import RecommendationModel
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class GPUQueryLatency:
    """Latency of one query on the accelerator, split by phase."""

    data_loading_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        """End-to-end latency in seconds."""
        return self.data_loading_s + self.compute_s

    @property
    def data_loading_fraction(self) -> float:
        """Fraction of end-to-end time spent moving inputs to the device."""
        total = self.total_s
        if total == 0:
            return 0.0
        return self.data_loading_s / total


class GPUEngine:
    """Latency model for recommendation inference on a discrete GPU."""

    def __init__(
        self,
        model: RecommendationModel,
        platform: GPUPlatform,
        per_operator_launch_s: float = 18e-6,
        staging_overhead_s: float = 750e-6,
    ) -> None:
        check_non_negative("per_operator_launch_s", per_operator_launch_s)
        check_non_negative("staging_overhead_s", staging_overhead_s)
        self._model = model
        self._platform = platform
        self._per_operator_launch_s = per_operator_launch_s
        self._staging_overhead_s = staging_overhead_s
        self._occupancy = gpu_occupancy_curve()
        self._num_operators = len(model.operators())
        # Dense latency column, filled lazily; the scalar API reads it.
        from repro.execution.latency_table import GPULatencyTable

        self._table = GPULatencyTable(self)

    @property
    def model(self) -> RecommendationModel:
        """The model whose latency this engine estimates."""
        return self._model

    @property
    def platform(self) -> GPUPlatform:
        """The accelerator platform."""
        return self._platform

    @property
    def latency_table(self):
        """The engine's dense :class:`~repro.execution.latency_table.GPULatencyTable`.

        :meth:`query_latency` and :meth:`query_latency_s` read it; the serving
        simulators index it directly.
        """
        return self._table

    # ------------------------------------------------------------------ #

    def query_components(self, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Data-loading and kernel seconds of one query over a vector of sizes.

        ``sizes`` is a float64 vector of query sizes.  Data loading is the
        host-to-device transfer of the query's input features plus a fixed
        staging overhead.  Input features for recommendation are small per
        item but the transfer is dominated by fixed staging costs
        (pinned-buffer copies, framework marshalling) at the batch sizes
        production queries use — which is why data loading accounts for the
        majority of end-to-end time.  Kernel time is the occupancy-derated
        roofline of the whole model plus launch overheads.  This is the one
        GPU pricing formula: the latency table calls it on
        ``np.arange(1, n + 1)``.
        """
        platform = self._platform
        data_loading = self._staging_overhead_s + platform.transfer_time(
            self._model.input_bytes(sizes)
        )
        cost = self._model.cost(sizes)
        occupancy = self._occupancy(sizes)
        compute_s = cost.flops / (platform.peak_flops * occupancy)
        # Streaming (weight/activation) traffic achieves a healthy fraction of
        # peak bandwidth regardless of batch size; gather traffic needs enough
        # parallel work in flight, so it is derated by occupancy.
        regular_s = cost.regular_bytes / (platform.memory_bandwidth * 0.7)
        irregular_s = cost.irregular_bytes / (
            platform.memory_bandwidth * 0.6 * np.maximum(occupancy, 0.1)
        )
        launch = (
            platform.kernel_launch_overhead_s
            + self._num_operators * self._per_operator_launch_s
        )
        return data_loading, np.maximum(compute_s, regular_s + irregular_s) + launch

    def query_latency(self, query_size: int) -> GPUQueryLatency:
        """End-to-end latency of one query of ``query_size`` candidate items."""
        check_positive("query_size", query_size)
        data_loading, kernel = self._table.components(query_size)
        return GPUQueryLatency(data_loading_s=data_loading, compute_s=kernel)

    def query_latency_s(self, query_size: int) -> float:
        """Scalar end-to-end query latency in seconds."""
        check_positive("query_size", query_size)
        return self._table.total_s(query_size)

    def speedup_over_cpu(self, cpu_latency_s: float, query_size: int) -> float:
        """Speedup of this GPU over a CPU baseline latency for the same query."""
        check_positive("cpu_latency_s", cpu_latency_s)
        return cpu_latency_s / self.query_latency_s(query_size)
