"""Batch-size efficiency curves.

The trade-off at the heart of DeepRecSched is that larger per-request batch
sizes use each core's SIMD units and the DRAM subsystem more efficiently,
while smaller batches expose more request-level parallelism across cores.
This module provides the saturating efficiency curves used by the execution
engines:

* **SIMD efficiency** — wider vector units (AVX-512) need larger batches to
  reach peak FLOP throughput than narrower ones (AVX-2).
* **Memory-access efficiency** — irregular embedding gathers reach higher
  effective DRAM bandwidth at larger batch sizes (more outstanding requests,
  better row-buffer locality); the curve saturates later than the SIMD one,
  which is why embedding-dominated models prefer the largest batches
  (Fig. 12b).
* **GPU occupancy** — a GPU needs very large batches before its SMs are
  occupied, producing the CPU/GPU crossover points of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.utils.validation import Batch, check_batch, check_positive


@dataclass(frozen=True)
class SaturatingCurve:
    """Efficiency ``eff(b) = max_eff * b / (b + half_saturation)``.

    ``half_saturation`` is the batch size at which half of ``max_eff`` is
    reached; ``floor`` bounds the efficiency from below so tiny batches do not
    produce absurd latencies.
    """

    max_efficiency: float
    half_saturation: float
    floor: float = 0.02

    def __post_init__(self) -> None:
        check_positive("max_efficiency", self.max_efficiency)
        check_positive("half_saturation", self.half_saturation)
        if not 0.0 < self.floor <= self.max_efficiency:
            raise ValueError(
                f"floor must be in (0, max_efficiency], got {self.floor}"
            )

    def __call__(self, batch_size: Batch) -> Union[float, np.ndarray]:
        """Efficiency at ``batch_size`` (monotonically non-decreasing).

        ``batch_size`` may be a number or a float64 vector of batch sizes;
        the result has the same shape.
        """
        batch = check_batch(batch_size)
        value = self.max_efficiency * batch / (batch + self.half_saturation)
        return np.maximum(self.floor, value)


def simd_efficiency_curve(simd_width_bits: int) -> SaturatingCurve:
    """SIMD utilisation vs batch size for a CPU core.

    AVX-512 requires roughly twice the batch of AVX-2 to reach the same
    fraction of peak, mirroring the observation in Section IV-A.
    """
    if simd_width_bits not in (128, 256, 512):
        raise ValueError(f"unsupported SIMD width {simd_width_bits}")
    half_saturation = {128: 4.0, 256: 8.0, 512: 16.0}[simd_width_bits]
    return SaturatingCurve(max_efficiency=0.85, half_saturation=half_saturation)


def irregular_access_curve() -> SaturatingCurve:
    """Effective-bandwidth fraction for irregular (gather) DRAM accesses.

    Saturates much later than the SIMD curve: embedding-heavy requests keep
    improving up to batch sizes of ~1K, which is why DeepRecSched picks
    batch 1024 for DLRM-RMC1/DIN.
    """
    return SaturatingCurve(max_efficiency=0.65, half_saturation=56.0)


def recurrent_efficiency_curve() -> SaturatingCurve:
    """Compute efficiency of recurrent (GRU) operators on a CPU core.

    Recurrent cells chain small matrix-vector products with a sequential
    dependency, so they extract little additional SIMD utilisation from
    larger batches — batching a GRU-dominated model mostly just lengthens
    the request.  This is why DIEN's optimal batch size is the smallest of
    the models in Fig. 9.
    """
    return SaturatingCurve(max_efficiency=0.35, half_saturation=2.0)


def regular_access_curve() -> SaturatingCurve:
    """Effective-bandwidth fraction for streaming (regular) DRAM accesses."""
    return SaturatingCurve(max_efficiency=0.85, half_saturation=4.0)


def gpu_occupancy_curve() -> SaturatingCurve:
    """SM-occupancy fraction vs batch size for the GPU compute/memory pipes."""
    return SaturatingCurve(max_efficiency=0.90, half_saturation=96.0, floor=0.01)
