"""Digital-twin demo: replay a diurnal trace as a live stream, shadow a what-if.

Generates a diurnally-modulated query trace (the Fig. 13 workload shape),
feeds it event by event through the service's ingest pipeline — exactly as a
TCP producer would — and lets the twin simulate each closed event-time
window incrementally, reporting the stream so far, for **two** fleet
configurations side by side:

* **real** — a fleet provisioned for the traffic;
* **what-if** — an operator's hypothetical config (here: deliberately
  under-provisioned), evaluated in shadow mode against the same live stream.

What to look for in the output:

* one summary line per closed window: real stays green while the what-if
  config goes RED as its cumulative p95 blows through the SLA — the
  divergence an operator would want to see *before* rolling the config out;
* the capacity-search evaluation counts: the first window pays the cold
  bisection for each config, every later window replays from the in-process
  memo at 0 evaluations (the per-window cost is the window's own events
  plus the report);
* the final shadow verdict and the capacity cache's tier counters.

Run with::

    PYTHONPATH=src python examples/digital_twin.py
"""

from repro.queries.generator import LoadGenerator
from repro.queries.trace import DiurnalPattern, generate_diurnal_trace
from repro.service.ingest import IngestPipeline
from repro.service.shadow import FleetSpec
from repro.service.twin import DigitalTwin
from repro.service.windows import WindowManager

SLA_S = 0.05

REAL = FleetSpec(
    name="real",
    model="ncf",
    platform="broadwell",
    num_servers=3,
    batch_size=128,
    num_cores=4,
    policy="least-outstanding",
)

#: The rollout candidate under evaluation: a third of the fleet on one core
#: per node — cheaper, and (as the twin shows) unable to hold the SLA.
WHAT_IF = FleetSpec(
    name="what-if",
    model="ncf",
    platform="broadwell",
    num_servers=1,
    batch_size=128,
    num_cores=2,
    policy="least-outstanding",
)


def build_pipeline(window_s: float = 4.0, seed: int = 17) -> IngestPipeline:
    """The service pipeline the demo streams into."""
    twin = DigitalTwin(
        real=REAL,
        sla_latency_s=SLA_S,
        load_generator=LoadGenerator(seed=seed),
        what_if=WHAT_IF,
        search_num_queries=100,
        search_iterations=4,
        search_max_queries=400,
    )
    return IngestPipeline(WindowManager(window_s=window_s), twin)


def replay(
    base_rate_qps: float = 700.0,
    duration_s: float = 20.0,
    window_s: float = 4.0,
    seed: int = 17,
) -> IngestPipeline:
    """Stream a diurnal trace through the twin; print per-window verdicts."""
    # A compressed "day": the diurnal period equals the replay duration, so
    # the stream sweeps through trough and peak traffic within the demo.
    trace = generate_diurnal_trace(
        base_rate_qps,
        duration_s,
        pattern=DiurnalPattern(amplitude=0.5, period_s=duration_s),
        seed=seed,
        time_step_s=window_s / 2,
    )
    pipeline = build_pipeline(window_s=window_s, seed=seed)
    print(
        f"replaying {len(trace)} events over {duration_s:.0f}s "
        f"({window_s:.0f}s windows), SLA p95 <= {SLA_S * 1e3:.0f} ms"
    )
    with pipeline.twin:
        for query in trace:  # the "live" stream: one event at a time
            for report in pipeline.feed(query):
                print(report.summary_line())
        for report in pipeline.finish():
            print(report.summary_line())

        diverged = sum(
            1 for r in pipeline.reports if r.shadow is not None and r.shadow.diverged
        )
        print(f"\nshadow mode: {diverged}/{len(pipeline.reports)} windows diverged")
        print(f"final verdict: {pipeline.reports[-1].shadow.describe()}")
        stats = pipeline.twin.capacity_cache.stats
        print(
            f"capacity cache: {stats['memo_hits']} memo replays, "
            f"{stats['stores']} cold searches stored"
        )
    return pipeline


if __name__ == "__main__":
    replay()
