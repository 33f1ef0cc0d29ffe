"""Execution engines: operator latency models for CPU cores and GPU accelerators."""

from repro.execution.breakdown import OperatorBreakdown, compute_breakdown
from repro.execution.cpu_engine import CPUEngine, RequestLatency
from repro.execution.efficiency import (
    SaturatingCurve,
    gpu_occupancy_curve,
    irregular_access_curve,
    regular_access_curve,
    simd_efficiency_curve,
)
from repro.execution.engine import (
    EnginePair,
    build_cpu_engine,
    build_engine_pair,
    build_gpu_engine,
)
from repro.execution.gpu_engine import GPUEngine, GPUQueryLatency
from repro.execution.latency_table import (
    CPULatencyTable,
    GPULatencyTable,
    ScaledLatencyTable,
)
from repro.execution.scaled_engine import ScaledCPUEngine

__all__ = [
    "OperatorBreakdown",
    "compute_breakdown",
    "CPUEngine",
    "RequestLatency",
    "SaturatingCurve",
    "gpu_occupancy_curve",
    "irregular_access_curve",
    "regular_access_curve",
    "simd_efficiency_curve",
    "EnginePair",
    "build_cpu_engine",
    "build_engine_pair",
    "build_gpu_engine",
    "GPUEngine",
    "GPUQueryLatency",
    "CPULatencyTable",
    "GPULatencyTable",
    "ScaledLatencyTable",
    "ScaledCPUEngine",
]
