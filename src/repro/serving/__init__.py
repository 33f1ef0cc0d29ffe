"""At-scale serving: SLA targets, query splitting, event-driven simulation.

The capacity search built on these simulators lives in :mod:`repro.runtime.capacity`.
"""

from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulationResult,
    ClusterSimulator,
    LeastOutstandingBalancer,
    LoadBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    ServerLoadSummary,
    WeightedLeastOutstandingBalancer,
    available_balancers,
    estimate_fleet_upper_bound_qps,
    estimate_upper_bound_qps,
    get_balancer,
    heterogeneous_fleet,
    homogeneous_fleet,
    warm_latency_tables,
)
from repro.serving.request import Request, num_requests, split_query
from repro.serving.simulator import (
    ServerKernel,
    ServingConfig,
    ServingSimulator,
    SimulationResult,
)
from repro.serving.sla import SLATarget, SLATier, TIER_MULTIPLIERS, sla_target, sla_targets

__all__ = [
    "ClusterServer",
    "ClusterSimulationResult",
    "ClusterSimulator",
    "LeastOutstandingBalancer",
    "LoadBalancer",
    "PowerOfTwoBalancer",
    "RandomBalancer",
    "RoundRobinBalancer",
    "ServerLoadSummary",
    "WeightedLeastOutstandingBalancer",
    "available_balancers",
    "estimate_fleet_upper_bound_qps",
    "estimate_upper_bound_qps",
    "get_balancer",
    "heterogeneous_fleet",
    "homogeneous_fleet",
    "warm_latency_tables",
    "Request",
    "num_requests",
    "split_query",
    "ServerKernel",
    "ServingConfig",
    "ServingSimulator",
    "SimulationResult",
    "SLATarget",
    "SLATier",
    "TIER_MULTIPLIERS",
    "sla_target",
    "sla_targets",
]
