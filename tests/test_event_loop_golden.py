"""Pinned results of the discrete-event core, one small case per path.

Each case runs one way into the event loop — the single-server simulator
(CPU-only and with accelerator offload), a fleet ``run()`` with per-server
latency collection, a sketch-mode ``run_stream``, the fault paths (naive,
retried, hedged, straggler-only, all-crashed) and the early-rejection
certificate — and compares every reported figure with a recorded value:
floats as ``float.hex``, latency lists as a digest of their exact bits.

The identity tests elsewhere compare one path with another; these pins
catch drift that would move every path at once.  After a deliberate change
of simulated behaviour, re-record with ``python tests/test_event_loop_golden.py``
and say why in the change log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, Callable, Dict

import pytest

from repro.execution.engine import build_engine_pair
from repro.faults import (
    CrashWindow,
    FaultPlan,
    NodeFaultSchedule,
    RetryPolicy,
    StragglerEpisode,
)
from repro.queries.generator import LoadGenerator
from repro.serving.cluster import ClusterSimulator, homogeneous_fleet
from repro.serving.simulator import ServingConfig, ServingSimulator

SLA_S = 0.1


def pin(value: Any) -> Any:
    """A comparable, exact rendering of a result object."""
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            **{f.name: pin(getattr(value, f.name)) for f in dataclasses.fields(value)},
        }
    if isinstance(value, list):
        if all(isinstance(item, float) for item in value):
            packed = struct.pack(f"<{len(value)}d", *value)
            return f"{len(value)}:{hashlib.sha256(packed).hexdigest()[:24]}"
        return [pin(item) for item in value]
    raise TypeError(f"cannot pin {type(value).__name__}")


def _cpu():
    return build_engine_pair("dlrm-rmc1", "skylake", None)


def _gpu():
    return build_engine_pair("dlrm-rmc1", "skylake", "gtx1080ti")


def _config(**kwargs: Any) -> ServingConfig:
    return ServingConfig(batch_size=256, num_cores=8, **kwargs)


def _queries(rate: float, count: int, seed: int = 11):
    return LoadGenerator(seed=seed).with_rate(rate).generate(count)


def _fleet(size: int):
    return homogeneous_fleet(_cpu(), _config(), size)


def _storm() -> FaultPlan:
    return FaultPlan(
        nodes={
            0: NodeFaultSchedule(crashes=(CrashWindow(0.1, 0.45),)),
            1: NodeFaultSchedule(
                stragglers=(StragglerEpisode(0.3, 0.7, slowdown=4.0),)
            ),
            2: NodeFaultSchedule(crashes=(CrashWindow(0.6, 0.85),)),
        }
    )


def _faulted(policy: str, plan: FaultPlan, retry: RetryPolicy, **run: Any):
    return ClusterSimulator(
        _fleet(3), policy, fault_plan=plan, retry_policy=retry
    ).run(_queries(3000.0, 3000), **run)


CASES: Dict[str, Callable[[], Any]] = {
    "serving-cpu": lambda: ServingSimulator(_cpu(), _config()).run(
        _queries(600.0, 700)
    ),
    "serving-gpu-offload": lambda: ServingSimulator(
        _gpu(), ServingConfig(batch_size=128, num_cores=8, offload_threshold=300)
    ).run(_queries(900.0, 700)),
    "serving-reject": lambda: ServingSimulator(_cpu(), _config()).run(
        _queries(4000.0, 600, seed=5), reject_above_sla_s=SLA_S
    ),
    "cluster-per-server": lambda: ClusterSimulator(
        _fleet(3), "least-outstanding", collect_per_server_latencies=True
    ).run(_queries(2400.0, 900)),
    "cluster-reject": lambda: ClusterSimulator(_fleet(2), "round-robin").run(
        _queries(8000.0, 800, seed=5), reject_above_sla_s=SLA_S
    ),
    "stream-sketch": lambda: ClusterSimulator(
        _fleet(4), "least-outstanding", latency_stats="sketch"
    ).run_stream(iter(_queries(3200.0, 1500)), 1500),
    # Long enough to cross the real sketch-flush chunk (32 768 samples)
    # before and after the late-window start.
    "stream-sketch-long": lambda: ClusterSimulator(
        _fleet(4), "least-outstanding", latency_stats="sketch"
    ).run_stream(iter(_queries(3200.0, 75000)), 75000),
    "faults-naive": lambda: _faulted("least-outstanding", _storm(), RetryPolicy()),
    "faults-retry": lambda: _faulted(
        "least-outstanding", _storm(), RetryPolicy(max_retries=3)
    ),
    "faults-hedged": lambda: _faulted(
        "failure-aware", _storm(), RetryPolicy(max_retries=2, hedge=True)
    ),
    "faults-straggler-only": lambda: _faulted(
        "least-outstanding",
        FaultPlan(
            nodes={
                1: NodeFaultSchedule(
                    stragglers=(StragglerEpisode(0.1, 0.5, slowdown=6.0),)
                )
            }
        ),
        RetryPolicy(),
    ),
    "faults-all-crashed": lambda: _faulted(
        "least-outstanding",
        FaultPlan(
            nodes={
                node: NodeFaultSchedule(crashes=(CrashWindow(0.0, 1.5),))
                for node in range(3)
            }
        ),
        RetryPolicy(max_retries=1, detect_delay_s=0.01),
        reject_above_sla_s=SLA_S,
    ),
}


EXPECTED: Dict[str, Any] = {
    "cluster-per-server": {
        "achieved_qps": "0x1.38bd07ab01483p+11",
        "arrival_span_s": "0x1.6df27f73f2849p-2",
        "drain_s": "0x1.34b39a9836d80p-9",
        "duration_s": "0x1.705be6a922f24p-2",
        "fault_stats": None,
        "fleet_cpu_utilization": "0x1.8afe387819e3ap-2",
        "latencies_s": "810:fb6390036da79a4a50a16841",
        "mean_latency_s": "0x1.42f906550553cp-9",
        "measured_queries": 810,
        "num_queries": 900,
        "num_servers": 3,
        "offered_qps": "0x1.3acca997e56e3p+11",
        "p50_latency_s": "0x1.35655418d70a0p-9",
        "p95_late_window_s": "0x1.e22b277afc380p-9",
        "p95_latency_s": "0x1.e22b277afc380p-9",
        "p99_latency_s": "0x1.10b041db2b733p-8",
        "per_server": [
            {
                "cpu_utilization": "0x1.89bf56330e726p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 67384,
                "num_queries": 319,
                "query_share": "0x1.6af37c048d15ap-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.8a0b3fba54614p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 68908,
                "num_queries": 284,
                "query_share": "0x1.4320fedcba987p-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.8d30137aead73p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 69066,
                "num_queries": 297,
                "query_share": "0x1.51eb851eb851fp-2",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": [
            "287:36d8309c1b549661a59f1b16",
            "249:ee0d6cbac303ef3eebe2fcd8",
            "274:62d4bfa6490762837bf064c9",
        ],
        "policy": "least-outstanding",
        "type": "ClusterSimulationResult",
    },
    "cluster-reject": {
        "achieved_qps": "0x1.039c409f5e441p+12",
        "arrival_span_s": "0x1.9460d5eebee67p-4",
        "drain_s": "0x1.807f0adec9853p-4",
        "duration_s": "0x1.8a6ff066c435dp-3",
        "fault_stats": None,
        "fleet_cpu_utilization": "0x1.f6b80ddc08e17p-1",
        "latencies_s": "720:5c2248dd7ec57f167d513082",
        "mean_latency_s": "0x1.9e111b2cbf317p-5",
        "measured_queries": 720,
        "num_queries": 800,
        "num_servers": 2,
        "offered_qps": "0x1.fa74dd1cd947dp+12",
        "p50_latency_s": "0x1.9b4ec28ba487dp-5",
        "p95_late_window_s": "0x1.7522981c492bbp-4",
        "p95_latency_s": "0x1.6df2501cc1af4p-4",
        "p99_latency_s": "0x1.79d6d705b1fe7p-4",
        "per_server": [
            {
                "cpu_utilization": "0x1.f340f44c0470dp-1",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 83633,
                "num_queries": 400,
                "query_share": "0x1.0000000000000p-1",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.fa2f276c0d520p-1",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 84689,
                "num_queries": 400,
                "query_share": "0x1.0000000000000p-1",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "round-robin",
        "type": "ClusterSimulationResult",
    },
    "faults-all-crashed": {
        "measured_queries": 0,
        "over_sla_queries": 3000,
        "sla_latency_s": "0x1.999999999999ap-4",
        "type": "CertainRejection",
    },
    "faults-hedged": {
        "achieved_qps": "0x1.71a4995efb046p+11",
        "arrival_span_s": "0x1.0331f6a803843p+0",
        "drain_s": "0x1.07a0d8dbdba00p-9",
        "duration_s": "0x1.03b5c71471720p+0",
        "fault_stats": {
            "blackholed_dispatches": 0,
            "crash_killed_in_flight": 8,
            "crashes": 2,
            "failed_queries": 0,
            "hedged_dispatches": 8,
            "recoveries": 2,
            "retries": 8,
            "type": "FaultStats",
        },
        "fleet_cpu_utilization": "0x1.10e4db62f515ap-1",
        "latencies_s": "2700:9e3b3952046f0700175c1107",
        "mean_latency_s": "0x1.ffd0ac8324015p-8",
        "measured_queries": 2700,
        "num_queries": 3000,
        "num_servers": 3,
        "offered_qps": "0x1.726094e8e1395p+11",
        "p50_latency_s": "0x1.db8e0317d0580p-9",
        "p95_late_window_s": "0x1.1e1c7d060e188p-6",
        "p95_latency_s": "0x1.f6acae51d6618p-6",
        "p99_latency_s": "0x1.34126dc9336e0p-5",
        "per_server": [
            {
                "cpu_utilization": "0x1.bce299bbc7153p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 204241,
                "num_queries": 977,
                "query_share": "0x1.4d7b900aec33ep-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.5120b0a82c3c5p-1",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 203271,
                "num_queries": 930,
                "query_share": "0x1.3d70a3d70a3d7p-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.031c94a2cf7a0p-1",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 239148,
                "num_queries": 1109,
                "query_share": "0x1.7a89e60f04c75p-2",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "failure-aware",
        "type": "ClusterSimulationResult",
    },
    "faults-naive": {
        "achieved_qps": "0x1.71a4995efb046p+11",
        "arrival_span_s": "0x1.0331f6a803843p+0",
        "drain_s": "0x1.07a0d8dbdba00p-9",
        "duration_s": "0x1.03b5c71471720p+0",
        "fault_stats": {
            "blackholed_dispatches": 1598,
            "crash_killed_in_flight": 10,
            "crashes": 2,
            "failed_queries": 1608,
            "hedged_dispatches": 0,
            "recoveries": 2,
            "retries": 0,
            "type": "FaultStats",
        },
        "fleet_cpu_utilization": "0x1.d924cf77237e5p-3",
        "latencies_s": "1092:17a1103898894ac691bcc4a2",
        "mean_latency_s": "0x1.886c8b2ca80ddp-9",
        "measured_queries": 1092,
        "num_queries": 3000,
        "num_servers": 3,
        "offered_qps": "0x1.726094e8e1395p+11",
        "p50_latency_s": "0x1.39dbf3353d780p-9",
        "p95_late_window_s": "0x1.e22b277afc300p-9",
        "p95_latency_s": "0x1.a25fb65b4fc8ep-8",
        "p99_latency_s": "0x1.f0e8951ce5341p-7",
        "per_server": [
            {
                "cpu_utilization": "0x1.e6b9fea1b1995p-3",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 117169,
                "num_queries": 549,
                "query_share": "0x1.76c8b43958106p-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.052206fda06c5p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 79948,
                "num_queries": 393,
                "query_share": "0x1.0c49ba5e353f8p-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.9a7061c878092p-3",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 98409,
                "num_queries": 460,
                "query_share": "0x1.3a06d3a06d3a0p-3",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "least-outstanding",
        "type": "ClusterSimulationResult",
    },
    "faults-retry": {
        "achieved_qps": "0x1.71a4995efb046p+11",
        "arrival_span_s": "0x1.0331f6a803843p+0",
        "drain_s": "0x1.07a0d8dbdba00p-9",
        "duration_s": "0x1.03b5c71471720p+0",
        "fault_stats": {
            "blackholed_dispatches": 6438,
            "crash_killed_in_flight": 10,
            "crashes": 2,
            "failed_queries": 1517,
            "hedged_dispatches": 0,
            "recoveries": 2,
            "retries": 4931,
            "type": "FaultStats",
        },
        "fleet_cpu_utilization": "0x1.01de9a53b21f2p-2",
        "latencies_s": "1183:d9bcdaab79b17bd8e0c0cb8c",
        "mean_latency_s": "0x1.50007b4e516a1p-8",
        "measured_queries": 1183,
        "num_queries": 3000,
        "num_servers": 3,
        "offered_qps": "0x1.726094e8e1395p+11",
        "p50_latency_s": "0x1.a72b5d3b71f00p-9",
        "p95_late_window_s": "0x1.e5e7e1842ad84p-7",
        "p95_latency_s": "0x1.200ba9db4f539p-6",
        "p99_latency_s": "0x1.cebefbaa7f6f0p-6",
        "per_server": [
            {
                "cpu_utilization": "0x1.0b9d34e855688p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 127142,
                "num_queries": 618,
                "query_share": "0x1.a5e353f7ced91p-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.1fb5c86169931p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 86937,
                "num_queries": 396,
                "query_share": "0x1.0e5604189374cp-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.b491a362aec38p-3",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 103364,
                "num_queries": 479,
                "query_share": "0x1.46ff513cc1e0ap-3",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "least-outstanding",
        "type": "ClusterSimulationResult",
    },
    "faults-straggler-only": {
        "achieved_qps": "0x1.71a4995efb046p+11",
        "arrival_span_s": "0x1.0331f6a803843p+0",
        "drain_s": "0x1.07a0d8dbdba00p-9",
        "duration_s": "0x1.03b5c71471720p+0",
        "fault_stats": {
            "blackholed_dispatches": 0,
            "crash_killed_in_flight": 0,
            "crashes": 0,
            "failed_queries": 0,
            "hedged_dispatches": 0,
            "recoveries": 0,
            "retries": 0,
            "type": "FaultStats",
        },
        "fleet_cpu_utilization": "0x1.0d048c0bd0c76p-1",
        "latencies_s": "2700:537d1174b32e4db31925cfd9",
        "mean_latency_s": "0x1.8a9f025baa134p-9",
        "measured_queries": 2700,
        "num_queries": 3000,
        "num_servers": 3,
        "offered_qps": "0x1.726094e8e1395p+11",
        "p50_latency_s": "0x1.3567297cef5c0p-9",
        "p95_late_window_s": "0x1.e45f88f160300p-9",
        "p95_latency_s": "0x1.27e5dec2e3032p-8",
        "p99_latency_s": "0x1.69a49938a5979p-6",
        "per_server": [
            {
                "cpu_utilization": "0x1.021f941de64e7p-1",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 248239,
                "num_queries": 1158,
                "query_share": "0x1.8b4395810624ep-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.273289a354c20p-1",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 154249,
                "num_queries": 699,
                "query_share": "0x1.dd2f1a9fbe76dp-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.fb770cc46e8b6p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 242336,
                "num_queries": 1143,
                "query_share": "0x1.8624dd2f1a9fcp-2",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "least-outstanding",
        "type": "ClusterSimulationResult",
    },
    "serving-cpu": {
        "achieved_qps": "0x1.37fa1ca70d2f6p+9",
        "arrival_span_s": "0x1.1ecfddcea0609p+0",
        "config": {
            "batch_size": 256,
            "num_cores": 8,
            "offload_threshold": None,
            "type": "ServingConfig",
            "warmup_fraction": "0x1.999999999999ap-4",
        },
        "cpu_utilization": "0x1.1c01e8a72e486p-2",
        "drain_s": "0x1.8e0266ea33800p-10",
        "duration_s": "0x1.1f335e685aed7p+0",
        "gpu_utilization": "0x0.0p+0",
        "gpu_work_fraction": "0x0.0p+0",
        "latencies_s": "630:34f2b3bc7a47ba558d195cf6",
        "mean_latency_s": "0x1.48ac23404fa18p-9",
        "measured_queries": 630,
        "num_queries": 700,
        "offered_qps": "0x1.3866583b37648p+9",
        "p50_latency_s": "0x1.372d2b39b1b00p-9",
        "p95_late_window_s": "0x1.ec96540db0600p-9",
        "p95_latency_s": "0x1.e45f88f160300p-9",
        "p99_latency_s": "0x1.36577bcee1782p-8",
        "type": "SimulationResult",
    },
    "serving-gpu-offload": {
        "achieved_qps": "0x1.d391dbad9aca7p+9",
        "arrival_span_s": "0x1.7e6a7d1380802p-1",
        "config": {
            "batch_size": 128,
            "num_cores": 8,
            "offload_threshold": 300,
            "type": "ServingConfig",
            "warmup_fraction": "0x1.999999999999ap-4",
        },
        "cpu_utilization": "0x1.f5553761455a7p-3",
        "drain_s": "0x1.af485b1f17c00p-10",
        "duration_s": "0x1.7f422141100c0p-1",
        "gpu_utilization": "0x1.34c84c5b57234p-2",
        "gpu_work_fraction": "0x1.0f2dbbcddbe9ep-1",
        "latencies_s": "630:ecae3631836b2259ff154176",
        "mean_latency_s": "0x1.f42ae8708ddadp-10",
        "measured_queries": 630,
        "num_queries": 700,
        "offered_qps": "0x1.d4998458d3179p+9",
        "p50_latency_s": "0x1.08d7857c3b280p-9",
        "p95_late_window_s": "0x1.49fc697022368p-9",
        "p95_latency_s": "0x1.351157888c1a2p-9",
        "p99_latency_s": "0x1.bc397484e7c26p-9",
        "type": "SimulationResult",
    },
    "serving-reject": {
        "measured_queries": 383,
        "over_sla_queries": 28,
        "sla_latency_s": "0x1.999999999999ap-4",
        "type": "CertainRejection",
    },
    "stream-sketch": {
        "achieved_qps": "0x1.9691940c44c67p+11",
        "arrival_span_s": "0x1.d4e4b040e5195p-2",
        "drain_s": "0x1.ad02798e63780p-9",
        "duration_s": "0x1.d83eb53401e04p-2",
        "fault_stats": None,
        "fleet_cpu_utilization": "0x1.7bc194dbb2f81p-2",
        "latencies_s": "0:e3b0c44298fc1c149afbf4c8",
        "mean_latency_s": "0x1.462beb7657985p-9",
        "measured_queries": 1350,
        "num_queries": 1500,
        "num_servers": 4,
        "offered_qps": "0x1.99798d0838478p+11",
        "p50_latency_s": "0x1.3fcac0c229880p-9",
        "p95_late_window_s": "0x1.e22b277afc380p-9",
        "p95_latency_s": "0x1.e22b277afc380p-9",
        "p99_latency_s": "0x1.e9a48190dde25p-9",
        "per_server": [
            {
                "cpu_utilization": "0x1.7d07fe173c000p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 84822,
                "num_queries": 390,
                "query_share": "0x1.0a3d70a3d70a4p-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.80228b4c1214ap-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 85188,
                "num_queries": 385,
                "query_share": "0x1.06d3a06d3a06dp-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.765adf3dee4fdp-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 84456,
                "num_queries": 347,
                "query_share": "0x1.d9c54a6921736p-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.7b80eacd8f7bfp-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-3",
                "num_items": 84800,
                "num_queries": 378,
                "query_share": "0x1.020c49ba5e354p-2",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "least-outstanding",
        "type": "ClusterSimulationResult",
    },
    "stream-sketch-long": {
        "achieved_qps": "0x1.8f62608c3d18fp+11",
        "arrival_span_s": "0x1.7789e9f5944cep+4",
        "drain_s": "0x1.42bb1d0ec6000p-9",
        "duration_s": "0x1.7793ffce7cc31p+4",
        "fault_stats": None,
        "fleet_cpu_utilization": "0x1.6ad66cf37c24ep-2",
        "latencies_s": "0:e3b0c44298fc1c149afbf4c8",
        "mean_latency_s": "0x1.3e667abdbec75p-9",
        "measured_queries": 67500,
        "num_queries": 75000,
        "num_servers": 4,
        "offered_qps": "0x1.8f6d1a55a2112p+11",
        "p50_latency_s": "0x1.28928d9d8c000p-9",
        "p95_late_window_s": "0x1.e22b277afc000p-9",
        "p95_latency_s": "0x1.e22b277afc000p-9",
        "p99_latency_s": "0x1.ec96540db0000p-9",
        "per_server": [
            {
                "cpu_utilization": "0x1.6ba5f6f7ab437p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-0",
                "num_items": 4115892,
                "num_queries": 18704,
                "query_share": "0x1.febe6fcb22611p-3",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.6d813c1d0575bp-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-1",
                "num_items": 4137748,
                "num_queries": 18807,
                "query_share": "0x1.00c73abc94706p-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.6975ca7a00132p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-2",
                "num_items": 4084668,
                "num_queries": 18845,
                "query_share": "0x1.014c0c8fa210bp-2",
                "type": "ServerLoadSummary",
            },
            {
                "cpu_utilization": "0x1.68bcb63f3fc76p-2",
                "gpu_utilization": "0x0.0p+0",
                "gpu_work_fraction": "0x0.0p+0",
                "name": "server-3",
                "num_items": 4079935,
                "num_queries": 18644,
                "query_share": "0x1.fd1b019c709cep-3",
                "type": "ServerLoadSummary",
            },
        ],
        "per_server_latencies": None,
        "policy": "least-outstanding",
        "type": "ClusterSimulationResult",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_result(name: str) -> None:
    assert pin(CASES[name]()) == EXPECTED[name]


if __name__ == "__main__":  # re-record: prints the EXPECTED literal
    import pprint

    pprint.pprint({name: pin(case()) for name, case in CASES.items()}, width=88)
