"""Datacenter-scale cluster simulation.

Two of the paper's experiments need more than a single simulated server:

* **Fig. 7** shows that the latency distribution measured on a handful of
  machines tracks the datacenter-wide distribution to within ~10 %, which
  justifies studying tail behaviour on a small subsample of the fleet.
* **Fig. 13** deploys the batch-size optimisation on a production cluster of
  hundreds of heterogeneous machines receiving live (diurnal) traffic for
  24 hours and reports 1.39x / 1.31x reductions in p95 / p99 latency.

:class:`DatacenterCluster` models a fleet of inference servers with per-node
heterogeneity (platform mix and a small per-node speed spread) and
trace-driven execution.  Since the fleet unification, every run executes as
**one** shared-heap :class:`~repro.serving.cluster.ClusterSimulator` pass:
queries are routed online by a pluggable balancing policy (``random`` by
default, reproducing the historical uniform pre-partitioning as an online
policy) instead of being pre-partitioned into N independent single-server
simulations.  Node engines ride the dense latency-table fast path through
:class:`~repro.execution.latency_table.ScaledLatencyTable` views, and the
warmup window is fleet-wide — the first ``warmup_fraction`` of queries *by
global arrival order* are excluded, rather than a per-node fraction that
starved lightly-loaded nodes of warmup entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.execution.engine import EnginePair
from repro.execution.scaled_engine import ScaledCPUEngine
from repro.queries.query import Query
from repro.queries.size_dist import ProductionQuerySizes, QuerySizeDistribution
from repro.queries.trace import DiurnalPattern, QueryTrace, generate_diurnal_trace
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulationResult,
    ClusterSimulator,
    LoadBalancer,
    ServerLoadSummary,
    estimate_upper_bound_qps,
    heterogeneous_fleet,
)
from repro.serving.simulator import ServingConfig, SimulationResult, late_window_p95
from repro.utils.rng import RngFactory
from repro.utils.stats import max_relative_cdf_gap, percentile_of_sorted
from repro.utils.validation import check_positive

__all__ = [
    "ClusterNode",
    "ClusterResult",
    "DatacenterCluster",
    "ScaledCPUEngine",
]


@dataclass(frozen=True)
class ClusterNode:
    """One inference server in the fleet."""

    node_id: int
    platform_name: str
    speed_factor: float


@dataclass
class ClusterResult:
    """Aggregate and per-node latency statistics from one cluster run."""

    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    per_node_results: Dict[int, SimulationResult]
    latencies_s: List[float] = field(repr=False, default_factory=list)
    #: Balancing policy that routed the run's queries.
    policy: str = "random"
    #: The underlying fleet-level measurement (per-server load shares,
    #: utilisation, drain time) from the shared-heap simulator pass.
    fleet: Optional[ClusterSimulationResult] = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        """Number of nodes that processed traffic."""
        return len(self.per_node_results)

    def node_latencies(self, node_ids: Sequence[int]) -> List[float]:
        """Pooled query latencies of a subset of nodes."""
        pooled: List[float] = []
        for node_id in node_ids:
            if node_id not in self.per_node_results:
                raise KeyError(f"node {node_id} not present in this result")
            pooled.extend(self.per_node_results[node_id].latencies_s)
        return pooled

    def query_shares(self) -> Dict[int, float]:
        """Fraction of the stream each node absorbed (by node id)."""
        total = sum(
            result.num_queries for result in self.per_node_results.values()
        )
        if not total:
            return {node_id: 0.0 for node_id in self.per_node_results}
        return {
            node_id: result.num_queries / total
            for node_id, result in self.per_node_results.items()
        }

    def subsample_gap(self, node_ids: Sequence[int]) -> float:
        """Max relative CDF gap between a node subsample and the whole fleet.

        This is the Fig. 7 metric: the paper reports the subsample tracking
        the datacenter distribution to within ~10 %.
        """
        return max_relative_cdf_gap(self.latencies_s, self.node_latencies(node_ids))


class DatacenterCluster:
    """A fleet of heterogeneous inference servers behind a pluggable balancer."""

    def __init__(
        self,
        model: str,
        num_nodes: int = 20,
        platform_mix: Optional[Dict[str, float]] = None,
        speed_spread: float = 0.06,
        num_cores: int = 0,
        seed: int = 0,
    ) -> None:
        check_positive("num_nodes", num_nodes)
        self._model = model
        self._num_cores = num_cores
        self._rng_factory = RngFactory(seed)
        # The fleet template: per-node scaled engines drawn once at
        # construction; run() re-binds them to the requested per-run config.
        # The template config's batch size is never executed.
        self._fleet: List[ClusterServer] = heterogeneous_fleet(
            model,
            ServingConfig(batch_size=1, num_cores=num_cores),
            num_nodes,
            platform_mix=platform_mix,
            speed_spread=speed_spread,
            rng=self._rng_factory.child("cluster-nodes"),
        )
        self._nodes: List[ClusterNode] = [
            ClusterNode(
                node_id=index,
                platform_name=server.engines.cpu.platform.name,
                speed_factor=server.engines.cpu.speed_factor,
            )
            for index, server in enumerate(self._fleet)
        ]
        self._engines: Dict[int, EnginePair] = {
            index: server.engines for index, server in enumerate(self._fleet)
        }
        # Randomised balancing policies draw from a stream derived from the
        # cluster seed, so two clusters with different seeds route differently.
        self._balancer_seed = int(
            self._rng_factory.child("load-balancer").integers(0, 2**31)
        )

    @property
    def model(self) -> str:
        """Zoo key of the model the fleet serves."""
        return self._model

    @property
    def nodes(self) -> List[ClusterNode]:
        """The fleet's nodes."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Fleet size."""
        return len(self._nodes)

    # ------------------------------------------------------------------ #

    def estimated_capacity_qps(
        self, batch_size: int, mean_query_size: Optional[float] = None
    ) -> float:
        """Optimistic fleet-wide throughput bound at a given batch size.

        Sums each node's upper-bound capacity using that node's platform and
        speed factor.  Used by the Fig. 13 experiment to pick an offered load
        that sits just below the fixed configuration's saturation point
        regardless of the fleet's platform mix.
        """
        check_positive("batch_size", batch_size)
        if mean_query_size is None:
            mean_query_size = ProductionQuerySizes().mean()
        config = ServingConfig(batch_size=batch_size, num_cores=self._num_cores)
        return sum(
            estimate_upper_bound_qps(self._engines[node.node_id], config, mean_query_size)
            for node in self._nodes
        )

    def _node_result(
        self,
        config: ServingConfig,
        summary: ServerLoadSummary,
        latencies: List[float],
        fleet: ClusterSimulationResult,
    ) -> SimulationResult:
        """Per-node :class:`SimulationResult` rebuilt from one server's kernel.

        Timing fields that only exist fleet-wide (duration, arrival span,
        drain) carry the shared-clock values; percentiles of a node that
        measured no post-warmup queries are reported as 0.0 rather than
        raising, since the fleet-wide statistics remain well defined.
        """
        if latencies:
            samples = np.asarray(latencies)
            ordered = np.sort(samples)
            p50 = percentile_of_sorted(ordered, 50)
            p95 = percentile_of_sorted(ordered, 95)
            p99 = percentile_of_sorted(ordered, 99)
            mean = float(samples.mean())
        else:
            p50 = p95 = p99 = mean = 0.0
        return SimulationResult(
            config=config,
            num_queries=summary.num_queries,
            measured_queries=len(latencies),
            duration_s=fleet.duration_s,
            p50_latency_s=p50,
            p95_latency_s=p95,
            p99_latency_s=p99,
            mean_latency_s=mean,
            achieved_qps=summary.num_queries / fleet.duration_s,
            offered_qps=summary.num_queries / fleet.arrival_span_s,
            cpu_utilization=summary.cpu_utilization,
            gpu_utilization=summary.gpu_utilization,
            gpu_work_fraction=summary.gpu_work_fraction,
            p95_late_window_s=late_window_p95(latencies),
            drain_s=fleet.drain_s,
            arrival_span_s=fleet.arrival_span_s,
            latencies_s=list(latencies),
        )

    def run(
        self,
        queries: Sequence[Query],
        batch_size: int,
        warmup_fraction: float = 0.05,
        policy: Union[str, LoadBalancer] = "random",
    ) -> ClusterResult:
        """Serve ``queries`` across the fleet at a fixed per-request batch size.

        The whole stream runs through one shared-heap
        :class:`~repro.serving.cluster.ClusterSimulator`; ``policy`` selects
        the balancing policy (any registered name or a
        :class:`~repro.serving.cluster.LoadBalancer` instance), defaulting to
        the legacy uniform-``random`` assignment.  ``warmup_fraction`` is
        fleet-wide: the first fraction of queries by global arrival order is
        excluded from every statistic, so lightly-loaded nodes are not
        systematically denied a warmup window.
        """
        check_positive("batch_size", batch_size)
        if not queries:
            raise ValueError("cannot run a cluster simulation with no queries")
        config = ServingConfig(
            batch_size=batch_size,
            num_cores=self._num_cores,
            warmup_fraction=warmup_fraction,
        )
        servers = [
            ClusterServer(engines=server.engines, config=config, name=server.name)
            for server in self._fleet
        ]
        simulator = ClusterSimulator(
            servers,
            balancer=policy,
            balancer_seed=self._balancer_seed,
            collect_per_server_latencies=True,
        )
        fleet = simulator.run(queries)

        per_node_results: Dict[int, SimulationResult] = {}
        assert fleet.per_server_latencies is not None
        for node, summary, latencies in zip(
            self._nodes, fleet.per_server, fleet.per_server_latencies
        ):
            if summary.num_queries == 0:
                continue
            per_node_results[node.node_id] = self._node_result(
                config, summary, latencies, fleet
            )
        if not per_node_results:
            raise ValueError("no node processed any measurable queries")
        return ClusterResult(
            p50_latency_s=fleet.p50_latency_s,
            p95_latency_s=fleet.p95_latency_s,
            p99_latency_s=fleet.p99_latency_s,
            per_node_results=per_node_results,
            latencies_s=fleet.latencies_s,
            policy=fleet.policy,
            fleet=fleet,
        )

    def run_diurnal(
        self,
        batch_size: int,
        base_rate_qps: float,
        duration_s: float,
        pattern: Optional[DiurnalPattern] = None,
        sizes: Optional[QuerySizeDistribution] = None,
        seed: Optional[int] = None,
        policy: Union[str, LoadBalancer] = "random",
    ) -> ClusterResult:
        """Serve a diurnally modulated trace (the Fig. 13 protocol).

        ``seed`` controls the generated trace.  When ``None`` (the default)
        it is derived from the cluster's own seed, so two clusters built with
        different seeds replay *different* traces out of the box — the old
        behaviour (a hardcoded default trace seed shared by every cluster)
        silently correlated experiments that looked independent.  Pass an
        explicit ``seed`` to replay one trace across clusters on purpose.
        """
        if seed is None:
            seed = int(self._rng_factory.child("diurnal-trace").integers(0, 2**31))
        trace: QueryTrace = generate_diurnal_trace(
            base_rate_qps=base_rate_qps,
            duration_s=duration_s,
            pattern=pattern,
            sizes=sizes if sizes is not None else ProductionQuerySizes(),
            seed=seed,
        )
        return self.run(trace, batch_size, policy=policy)
