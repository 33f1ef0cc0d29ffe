"""Fig. 13: batch-size tuning deployed on a production-scale cluster.

Simulates the paper's production experiment protocol: a heterogeneous fleet
of machines receives diurnally modulated live traffic near its serving
capacity, first with the fixed production batch size (largest query split
over all worker cores) and then with the tuned batch size; the reported
quantities are the resulting p95 and p99 tail-latency reductions (the paper
measures 1.39x and 1.31x across models and servers).

The production experiment ran for 24 hours on hundreds of machines; here the
traffic cycle is compressed (seconds instead of hours) and the fleet is a few
nodes with a reduced worker-core count, which preserves the load-relative
behaviour while keeping the simulation affordable.

Since the fleet unification the replay runs through the shared-heap
:class:`~repro.serving.cluster.ClusterSimulator`, so the experiment sweeps
*balancing policies* on top of batch sizes: ``random`` reproduces the legacy
uniform pre-partitioning as an online policy, and load-aware policies
(``least-outstanding`` by default) show what a real balancer buys the same
fleet.  Per-node load shares and the active policy land in the result
metadata.  ``jobs > 1`` fans the independent (batch, policy) replays out over
a process pool, and ``capacity_cache_dir`` memoises completed replays on
disk (the same directory the capacity searches use for warm starts).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.static_scheduler import StaticSchedulerPolicy
from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.infra.datacenter import DatacenterCluster
from repro.queries.size_dist import ProductionQuerySizes
from repro.queries.trace import DiurnalPattern
from repro.runtime.pool import TaskContext, as_completed, pool_scope
from repro.utils.validation import check_in_range, check_positive

#: The paper's production protocol (uniform ``random`` assignment) plus the
#: load-aware policies: plain least-outstanding and its speed-weighted
#: variant, which normalises each node's outstanding work by its
#: ``speed_factor`` — on the datacenter's speed-spread fleet that is the
#: policy a capacity-aware production balancer would run.  Any name in the
#: balancer registry can be swept via ``policies=``.
DEFAULT_POLICIES = ("random", "least-outstanding", "weighted-least-outstanding")

#: Keys every replay summary carries.  The schema version is folded into the
#: cache digest, so entries written by a version with different summary keys
#: can never be served back (bump this when a key is added or changes
#: meaning).  The loader accepts any superset of these keys, so entries that
#: still carry a dropped key load unchanged.
_REPLAY_SCHEMA = 1
_SUMMARY_KEYS = frozenset(
    {
        "p95_latency_s",
        "p99_latency_s",
        "query_shares",
        "max_node_share",
    }
)


def _replay_summary(
    cluster: DatacenterCluster,
    batch_size: int,
    policy: str,
    replay: Dict[str, Any],
) -> Dict[str, Any]:
    """One diurnal replay reduced to the JSON-serialisable numbers we report."""
    outcome = cluster.run_diurnal(
        batch_size=batch_size,
        base_rate_qps=replay["base_rate_qps"],
        duration_s=replay["duration_s"],
        pattern=DiurnalPattern(
            amplitude=replay["diurnal_amplitude"], period_s=replay["duration_s"]
        ),
        seed=replay["seed"],
        policy=policy,
    )
    shares = outcome.query_shares()
    return {
        "p95_latency_s": outcome.p95_latency_s,
        "p99_latency_s": outcome.p99_latency_s,
        "query_shares": {str(node_id): share for node_id, share in sorted(shares.items())},
        "max_node_share": max(shares.values()),
    }


def _replay_digest(
    cluster_kwargs: Dict[str, Any],
    replay: Dict[str, Any],
    batch_size: int,
    policy: str,
) -> str:
    payload = json.dumps(
        {
            "kind": "fig13-replay",
            "schema": _REPLAY_SCHEMA,
            "cluster": cluster_kwargs,
            "replay": replay,
            "batch_size": batch_size,
            "policy": policy,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


# Task context for the parallel replay fan: each pool worker builds the
# (deterministic) cluster once, then receives bare (batch, policy) points.
def _build_replay_state(
    payload: Tuple[Dict[str, Any], Dict[str, Any]],
) -> Tuple[DatacenterCluster, Dict[str, Any]]:
    cluster_kwargs, replay = payload
    return DatacenterCluster(**cluster_kwargs), replay


def _replay_point(
    state: Tuple[DatacenterCluster, Dict[str, Any]], point: Tuple[int, str]
) -> Dict[str, Any]:
    cluster, replay = state
    batch_size, policy = point
    return _replay_summary(cluster, batch_size, policy, replay)


def _run_replays(
    cluster: DatacenterCluster,
    cluster_kwargs: Dict[str, Any],
    replay: Dict[str, Any],
    points: Sequence[Tuple[int, str]],
    jobs: int,
    cache_dir: Union[str, Path, None],
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Evaluate replay points (memo + worker pool); returns (summaries, stats)."""
    cache = Path(cache_dir) if cache_dir is not None else None
    summaries: List[Optional[Dict[str, Any]]] = [None] * len(points)
    todo: List[int] = []
    for index, (batch_size, policy) in enumerate(points):
        if cache is not None:
            path = cache / f"fig13-{_replay_digest(cluster_kwargs, replay, batch_size, policy)}.json"
            if path.is_file():
                try:
                    loaded = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    loaded = None  # unreadable entry: recompute
                if isinstance(loaded, dict) and _SUMMARY_KEYS <= loaded.keys():
                    summaries[index] = loaded
                    continue
        todo.append(index)

    if todo:
        # The serial path reuses the caller's already-built cluster (seeded
        # into the context); pool workers each build their own deterministic
        # copy from the kwargs, cached across points by the context token.
        # Nested invocations (a pooled sweep point) run inline automatically.
        # Completion-driven: each replay is memoised the moment it lands, so
        # an interrupted run keeps its finished points.
        context = TaskContext(
            _build_replay_state, (cluster_kwargs, replay), value=(cluster, replay)
        )
        if cache is not None:
            cache.mkdir(parents=True, exist_ok=True)
        with pool_scope(jobs) as worker_pool:
            futures = {
                worker_pool.submit(_replay_point, points[i], context=context): i
                for i in todo
            }
            for future in as_completed(futures):
                index = futures[future]
                summaries[index] = future.result()
                if cache is not None:
                    batch_size, policy = points[index]
                    path = cache / (
                        "fig13-"
                        f"{_replay_digest(cluster_kwargs, replay, batch_size, policy)}"
                        ".json"
                    )
                    scratch = path.with_suffix(f".tmp-{os.getpid()}")
                    scratch.write_text(json.dumps(summaries[index], sort_keys=True))
                    scratch.replace(path)
    # Every slot is filled (cache hit or computed); the caller indexes the
    # list positionally, so dropping entries would mispair fixed/tuned runs.
    assert all(summary is not None for summary in summaries)
    stats = {"replay_hits": len(points) - len(todo), "replay_misses": len(todo)}
    return summaries, stats  # type: ignore[return-value]


@register_experiment("figure-13")
def run(
    model: str = "dlrm-rmc1",
    tuned_batch_size: int = 512,
    num_nodes: int = 2,
    num_cores_per_node: int = 16,
    load_fraction: float = 1.05,
    duration_s: float = 8.0,
    diurnal_amplitude: float = 0.4,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 29,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Compare fixed vs tuned batch size on a loaded fleet, per balancing policy.

    ``load_fraction`` sets the mean offered load as a fraction of the fixed
    configuration's estimated capacity; with the default diurnal amplitude the
    traffic peak pushes the fixed configuration past saturation, which is
    exactly the regime where the tuned batch size pays off.  Every
    (batch size, policy) pair replays the *same* trace through one
    shared-heap cluster run.  The headline ``p95_reduction``/``p99_reduction``
    metadata keys report the first policy (``random`` by default, matching the
    paper's production setup); per-policy reductions and load shares are under
    ``by_policy``.
    """
    check_positive("tuned_batch_size", tuned_batch_size)
    check_positive("num_cores_per_node", num_cores_per_node)
    check_in_range("load_fraction", load_fraction, 0.1, 1.5)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    policies = list(policies)
    if not policies:
        raise ValueError("policies must name at least one balancing policy")

    cluster_kwargs: Dict[str, Any] = dict(
        model=model, num_nodes=num_nodes, num_cores=num_cores_per_node, seed=seed
    )
    cluster = DatacenterCluster(**cluster_kwargs)

    reference = build_engine_pair(model, "skylake", None)
    fixed_batch = StaticSchedulerPolicy().batch_size(
        reference.cpu.platform, num_cores=num_cores_per_node
    )
    mean_query_size = ProductionQuerySizes().mean()
    base_rate = load_fraction * cluster.estimated_capacity_qps(
        fixed_batch, mean_query_size
    )
    replay: Dict[str, Any] = dict(
        base_rate_qps=base_rate,
        duration_s=duration_s,
        diurnal_amplitude=diurnal_amplitude,
        seed=seed,
    )

    points = [
        (batch_size, policy)
        for policy in policies
        for batch_size in (fixed_batch, tuned_batch_size)
    ]
    summaries, replay_stats = _run_replays(
        cluster, cluster_kwargs, replay, points, jobs, capacity_cache_dir
    )

    result = ExperimentResult(
        experiment_id="figure-13",
        title="Production-cluster tail latency: fixed vs tuned batch size",
        headers=["policy", "configuration", "batch-size", "p95-ms", "p99-ms", "max-node-share"],
    )
    by_policy: Dict[str, Dict[str, Any]] = {}
    for offset, policy in enumerate(policies):
        fixed, tuned = summaries[2 * offset], summaries[2 * offset + 1]
        result.add_row(
            policy, "fixed (baseline)", fixed_batch,
            round(fixed["p95_latency_s"] * 1e3, 2), round(fixed["p99_latency_s"] * 1e3, 2),
            round(fixed["max_node_share"], 3),
        )
        result.add_row(
            policy, "tuned (deeprecsched)", tuned_batch_size,
            round(tuned["p95_latency_s"] * 1e3, 2), round(tuned["p99_latency_s"] * 1e3, 2),
            round(tuned["max_node_share"], 3),
        )
        by_policy[policy] = {
            "p95_reduction": fixed["p95_latency_s"] / tuned["p95_latency_s"],
            "p99_reduction": fixed["p99_latency_s"] / tuned["p99_latency_s"],
            "fixed_query_shares": fixed["query_shares"],
            "tuned_query_shares": tuned["query_shares"],
        }

    headline = by_policy[policies[0]]
    result.metadata["p95_reduction"] = headline["p95_reduction"]
    result.metadata["p99_reduction"] = headline["p99_reduction"]
    result.metadata["offered_qps"] = base_rate
    result.metadata["fixed_batch_size"] = fixed_batch
    result.metadata["policies"] = list(policies)
    result.metadata["by_policy"] = by_policy
    if capacity_cache_dir is not None:
        result.metadata["capacity_cache_stats"] = replay_stats
    result.notes = (
        f"p95 reduction {headline['p95_reduction']:.2f}x, "
        f"p99 reduction {headline['p99_reduction']:.2f}x under the "
        f"{policies[0]!r} policy (paper: 1.39x and 1.31x)."
    )
    return result
