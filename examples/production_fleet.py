"""Production fleet study: batch tuning on a heterogeneous cluster.

Mirrors the paper's production deployment experiment (Fig. 13): a fleet of
heterogeneous machines (a Skylake/Broadwell mix with per-node speed spread)
receives diurnally modulated traffic near its serving capacity; serving it
with the fixed production batch size is compared against the tuned batch
size, and the p95/p99 tail-latency reduction is reported.  The whole fleet
runs as one shared-heap cluster simulation, so the same trace is also
replayed under a load-aware balancing policy to show what a real balancer
buys on top of batch tuning.  Also demonstrates the Fig. 7 observation that
a handful of nodes tracks the fleet-wide latency distribution.

Run with::

    python examples/production_fleet.py
"""

from repro.core import StaticSchedulerPolicy
from repro.execution import build_engine_pair
from repro.infra import DatacenterCluster
from repro.queries import DiurnalPattern, ProductionQuerySizes
from repro.utils import format_table

MODEL = "dlrm-rmc1"
NUM_NODES = 2
CORES_PER_NODE = 16
TUNED_BATCH = 512
DURATION_S = 8.0


def main() -> None:
    """Run the fixed-vs-tuned fleet comparison and the subsampling check."""
    cluster = DatacenterCluster(
        MODEL, num_nodes=NUM_NODES, num_cores=CORES_PER_NODE, seed=3
    )
    pattern = DiurnalPattern(amplitude=0.4, period_s=DURATION_S)

    # Offer ~85% of the fixed configuration's estimated fleet capacity, so the
    # diurnal peak pushes the baseline past saturation (the production regime).
    reference = build_engine_pair(MODEL, "skylake", None)
    fixed_batch = StaticSchedulerPolicy().batch_size(
        reference.cpu.platform, num_cores=CORES_PER_NODE
    )
    base_rate = 0.85 * cluster.estimated_capacity_qps(
        fixed_batch, ProductionQuerySizes().mean()
    )

    replay = dict(
        base_rate_qps=base_rate, duration_s=DURATION_S, pattern=pattern, seed=3
    )
    rows = []
    tuned_by_policy = {}
    for policy in ("random", "least-outstanding"):
        fixed = cluster.run_diurnal(batch_size=fixed_batch, policy=policy, **replay)
        tuned = cluster.run_diurnal(batch_size=TUNED_BATCH, policy=policy, **replay)
        tuned_by_policy[policy] = tuned
        rows.append(
            [policy, "fixed", fixed_batch, round(fixed.p95_latency_s * 1e3, 2),
             round(fixed.p99_latency_s * 1e3, 2)]
        )
        rows.append(
            [policy, "tuned", TUNED_BATCH, round(tuned.p95_latency_s * 1e3, 2),
             round(tuned.p99_latency_s * 1e3, 2)]
        )
        if policy == "random":
            reductions = (
                fixed.p95_latency_s / tuned.p95_latency_s,
                fixed.p99_latency_s / tuned.p99_latency_s,
            )
    print(
        format_table(
            ["policy", "config", "batch", "p95-ms", "p99-ms"],
            rows,
            title=(
                f"Fleet tail latency at ~{base_rate:.0f} QPS offered "
                f"({MODEL}, {NUM_NODES} nodes x {CORES_PER_NODE} cores)"
            ),
        )
    )
    print(
        f"p95 reduction: {reductions[0]:.2f}x, "
        f"p99 reduction: {reductions[1]:.2f}x under random balancing "
        "(paper: 1.39x / 1.31x)"
    )

    # The Fig. 7 observation is made under the paper's uniform assignment.
    subsample = [cluster.nodes[0].node_id]
    gap = tuned_by_policy["random"].subsample_gap(subsample)
    print(
        f"\nSubsampling check: 1 of {cluster.num_nodes} nodes tracks the fleet "
        f"latency distribution within {gap * 100:.1f}% (paper: ~10%)."
    )


if __name__ == "__main__":
    main()
