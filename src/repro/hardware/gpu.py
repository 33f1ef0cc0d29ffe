"""GPU accelerator platform model.

The paper evaluates offloading recommendation queries to a server-class
NVIDIA GTX 1080 Ti and observes that (a) input data loading over PCIe accounts
for 60–80 % of end-to-end inference time, and (b) GPUs only overtake CPUs
above a per-model batch-size crossover (Fig. 4).  :class:`GPUPlatform` captures
exactly the parameters needed to reproduce those two behaviours: kernel launch
overhead, PCIe bandwidth, and a batch-efficiency curve expressed through the
execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.platform import HardwarePlatform
from repro.utils.units import GB
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class GPUPlatform(HardwarePlatform):
    """A discrete GPU accelerator attached over PCIe.

    Attributes
    ----------
    num_sms:
        Number of streaming multiprocessors (occupancy saturates when the
        batch provides enough parallel work for all of them).
    pcie_bandwidth:
        Host-to-device transfer bandwidth, bytes/s.
    kernel_launch_overhead_s:
        Fixed per-inference overhead (kernel launches, framework dispatch).
    transfer_overhead_s:
        Fixed per-transfer latency (DMA setup, driver).
    """

    num_sms: int = 28
    pcie_bandwidth: float = 12.0 * GB
    kernel_launch_overhead_s: float = 200e-6
    transfer_overhead_s: float = 50e-6

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("num_sms", self.num_sms)
        check_positive("pcie_bandwidth", self.pcie_bandwidth)
        check_non_negative("kernel_launch_overhead_s", self.kernel_launch_overhead_s)
        check_non_negative("transfer_overhead_s", self.transfer_overhead_s)

    def transfer_time(self, num_bytes):
        """Host-to-device transfer time for ``num_bytes`` of input data.

        ``num_bytes`` may be a float64 vector (one transfer per entry).
        """
        check_non_negative("num_bytes", np.min(num_bytes))
        return self.transfer_overhead_s + num_bytes / self.pcie_bandwidth


def gtx_1080ti() -> GPUPlatform:
    """NVIDIA GTX 1080 Ti-class accelerator used in the paper.

    3584 CUDA cores across 28 SMs, ~11.3 TFLOP/s FP32, 484 GB/s GDDR5X,
    250 W TDP, PCIe 3.0 x16 host link.
    """
    return GPUPlatform(
        name="gtx1080ti",
        peak_flops=11.3e12,
        memory_bandwidth=484.0 * GB,
        tdp_watts=250.0,
        idle_power_fraction=0.22,
        num_sms=28,
        pcie_bandwidth=12.0 * GB,
        kernel_launch_overhead_s=250e-6,
        transfer_overhead_s=60e-6,
    )


_GPU_REGISTRY = {"gtx1080ti": gtx_1080ti}


def get_gpu(name: str = "gtx1080ti") -> GPUPlatform:
    """Return a named GPU platform."""
    key = name.lower()
    if key not in _GPU_REGISTRY:
        raise KeyError(
            f"unknown GPU platform {name!r}; available: {sorted(_GPU_REGISTRY)}"
        )
    return _GPU_REGISTRY[key]()


def available_gpus() -> list:
    """Names of the registered GPU platforms."""
    return sorted(_GPU_REGISTRY)
