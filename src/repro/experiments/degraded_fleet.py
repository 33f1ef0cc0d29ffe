"""Degraded-fleet extension: serving capacity and tails under injected faults.

The paper's evaluation assumes every node stays healthy; production fleets
do not.  This extension experiment injects deterministic, seeded fault
plans (node crash/recovery intervals plus straggler episodes — see
:mod:`repro.faults`) into the shared-heap
:class:`~repro.serving.cluster.ClusterSimulator` and measures what failures
cost — and what failure-awareness buys back — as the fault rate rises:

* **naive** arm: the stock ``least-outstanding`` balancer with no retries.
  It has no health view, so a crashed node (whose queue the crash just
  cleared) looks *maximally attractive* and the balancer blackholes
  traffic into it — the classic failure mode this experiment exists to
  show.
* **failure-aware** arm: the ``failure-aware`` balancer (skips down nodes,
  discounts stragglers) plus a :class:`~repro.faults.RetryPolicy` with a
  retry budget and hedged duplicates.

Both arms replay the *same* query stream under the *same* seeded fault
plan per fault rate, so every difference in the table is attributable to
the balancing/retry policy alone.  Reported per (rate, arm): fleet
capacity at the p95 SLA under faults, measured p95 at a fixed offered
load, and SLA violations (failed queries plus completions over the SLA).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.execution.engine import build_engine_pair
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.faults import FaultPlan, RetryPolicy
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacityCache, CapacitySearch, run_capacity_searches
from repro.serving.cluster import ClusterSimulator, homogeneous_fleet
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target
from repro.utils.validation import check_in_range, check_positive

#: Per-node crash rates swept by default.  High-capacity simulated fleets
#: compress wall-clock into sub-second traces, so the rates are time-dense
#: (fractions of a crash per simulated second) to land a handful of crash
#: windows inside every replay.
DEFAULT_CRASH_RATES_HZ = (0.0, 0.2, 0.5)

#: The two arms compared at every fault rate: (label, balancer, retry policy).
ARMS: Tuple[Tuple[str, str, RetryPolicy], ...] = (
    ("naive", "least-outstanding", RetryPolicy()),
    (
        "failure-aware",
        "failure-aware",
        RetryPolicy(max_retries=2, hedge=True),
    ),
)


@register_experiment("degraded-fleet")
def run(
    model: str = "dlrm-rmc1",
    tier: SLATier = SLATier.MEDIUM,
    num_servers: int = 3,
    num_cores: int = 8,
    batch_size: int = 256,
    crash_rates_hz: Sequence[float] = DEFAULT_CRASH_RATES_HZ,
    mean_downtime_s: float = 0.5,
    straggler_slowdown: float = 3.0,
    mean_straggler_s: float = 1.0,
    load_fraction: float = 0.55,
    duration_s: float = 4.0,
    capacity_num_queries: int = 6000,
    capacity_iterations: int = 4,
    capacity_max_queries: int = 12000,
    seed: int = 17,
    jobs: int = 1,
    capacity_cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Sweep fault rate x {naive, failure-aware} on one homogeneous fleet.

    ``crash_rates_hz`` are per-node crash rates; each rate also injects
    straggler episodes at half that rate (slowdown
    ``straggler_slowdown``), so the sweep degrades both availability and
    speed together.  ``load_fraction`` fixes the measured offered load as
    a fraction of the *healthy* fleet's capacity at the SLA — the same
    absolute QPS for every cell, so p95/violations columns are comparable
    across rates and arms.  Fault plans are seeded per rate and shared by
    both arms (and by the capacity search), making every cell a
    deterministic function of ``seed``.
    """
    check_positive("num_servers", num_servers)
    check_in_range("load_fraction", load_fraction, 0.1, 1.0)
    check_positive("duration_s", duration_s)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    rates = [float(rate) for rate in crash_rates_hz]
    if not rates or any(rate < 0 for rate in rates):
        raise ValueError(
            f"crash_rates_hz must be non-negative, got {crash_rates_hz!r}"
        )

    target = sla_target(model, tier)
    engines = build_engine_pair(model, "skylake", None)
    config = ServingConfig(batch_size=batch_size, num_cores=num_cores)
    servers = homogeneous_fleet(engines, config, num_servers)
    generator = LoadGenerator(seed=seed)
    warm_start = CapacityCache(capacity_cache_dir) if capacity_cache_dir else None
    fidelity = dict(
        num_queries=capacity_num_queries,
        iterations=capacity_iterations,
        max_queries=capacity_max_queries,
    )

    # Healthy-fleet capacity anchors the offered load for every cell.
    baseline = run_capacity_searches(
        [
            CapacitySearch.for_fleet(
                servers, "least-outstanding", target.latency_s, generator,
                **fidelity,
            )
        ],
        jobs=jobs,
        warm_start_cache=warm_start,
    )[0]
    offered_qps = load_fraction * baseline.max_qps
    num_queries = max(1, int(offered_qps * duration_s))
    queries = generator.with_rate(offered_qps).generate(num_queries)
    horizon_s = queries[-1].arrival_time if queries else 0.0

    # One seeded plan per fault rate, shared verbatim by both arms and by
    # that rate's capacity searches.
    plans = [
        FaultPlan.generate(
            num_servers,
            horizon_s,
            crash_rate_hz=rate,
            mean_downtime_s=mean_downtime_s,
            straggler_rate_hz=rate / 2.0,
            mean_straggler_s=mean_straggler_s,
            straggler_slowdown=straggler_slowdown,
            seed=seed,
        )
        for rate in rates
    ]

    # Capacity under faults, one search per (rate, arm), all submitted into
    # the shared pool at once like every other sweep in the repository.
    searches = [
        CapacitySearch.for_fleet(
            servers, balancer, target.latency_s, generator,
            fault_plan=plan, retry_policy=retry, **fidelity,
        )
        for plan in plans
        for (_, balancer, retry) in ARMS
    ]
    capacities = iter(
        run_capacity_searches(searches, jobs=jobs, warm_start_cache=warm_start)
    )

    result = ExperimentResult(
        experiment_id="degraded-fleet",
        title=(
            f"Fleet capacity and tails under injected faults "
            f"({model}, {num_servers} servers, {target.latency_ms:.0f} ms p95)"
        ),
        headers=[
            "crash-rate-hz", "arm", "capacity-qps", "p95-ms", "violations",
            "failed", "retries", "hedges", "crashes",
        ],
    )
    by_rate: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for rate, plan in zip(rates, plans):
        cells: Dict[str, Dict[str, Any]] = {}
        for label, balancer, retry in ARMS:
            capacity = next(capacities)
            simulator = ClusterSimulator(
                servers,
                balancer=balancer,
                fault_plan=plan,
                retry_policy=retry,
            )
            measured = simulator.run(queries)
            stats = measured.fault_stats
            failed = measured.failed_queries
            over_sla = sum(
                1
                for latency in measured.latencies_s
                if latency > target.latency_s
            )
            violations = failed + over_sla
            result.add_row(
                rate, label, round(capacity.max_qps, 1),
                round(measured.p95_latency_s * 1e3, 2), violations, failed,
                stats.retries if stats else 0,
                stats.hedged_dispatches if stats else 0,
                stats.crashes if stats else 0,
            )
            cells[label] = {
                "capacity_qps": capacity.max_qps,
                "p95_latency_s": measured.p95_latency_s,
                "violations": violations,
                "failed_queries": failed,
                "blackholed": stats.blackholed_dispatches if stats else 0,
                "retries": stats.retries if stats else 0,
                "hedged": stats.hedged_dispatches if stats else 0,
                "crashes": stats.crashes if stats else 0,
            }
        by_rate[f"{rate:g}"] = cells

    worst = f"{max(rates):g}"
    result.metadata["baseline_capacity_qps"] = baseline.max_qps
    result.metadata["offered_qps"] = offered_qps
    result.metadata["crash_rates_hz"] = rates
    result.metadata["by_rate"] = by_rate
    result.metadata["sla_latency_ms"] = target.latency_ms
    if warm_start is not None:
        result.metadata["capacity_cache_stats"] = dict(warm_start.stats)
    naive_worst = by_rate[worst]["naive"]
    aware_worst = by_rate[worst]["failure-aware"]
    result.notes = (
        f"At {worst} crashes/s per node: naive balancing suffers "
        f"{naive_worst['violations']} SLA violations "
        f"({naive_worst['failed_queries']} failed outright); failure-aware "
        f"balancing with retry+hedging holds that to "
        f"{aware_worst['violations']} violations "
        f"({aware_worst['failed_queries']} failed)."
    )
    return result
