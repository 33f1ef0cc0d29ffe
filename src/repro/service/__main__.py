"""Command-line entry point for the digital-twin serving service.

Usage::

    # serve a TCP line protocol on :9900, shadowing a what-if config
    python -m repro.service --port 9900 --window-s 60 \\
        --what-if-config what_if.json

    # read events from stdin (e.g. piped from a trace file)
    python -m repro.service --stdin --window-s 30

    # replay a recorded QueryTrace as if it were live, then exit
    python -m repro.service --replay trace.jsonl --window-s 30

Events are newline-delimited JSON objects (``{"query_id": ..,
"arrival_time": .., "size": ..}``) or ``id,time,size`` CSV — see
:mod:`repro.service.ingest`.  Each closed window prints one summary line
(and, with ``--report``, the full per-window table).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from repro.queries.generator import LoadGenerator
from repro.queries.trace import QueryTrace
from repro.runtime.pool import shared_pool
from repro.serving.cluster import available_balancers
from repro.service.checkpoint import WindowJournal
from repro.service.ingest import IngestPipeline, serve_tcp
from repro.service.shadow import FleetSpec, load_fleet_spec
from repro.service.twin import DigitalTwin, TwinWindowReport
from repro.service.windows import WindowManager


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the service CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Digital-twin serving service: stream query events, simulate "
            "each event-time window incrementally, and publish capacity / "
            "p95-vs-SLA verdicts for the real fleet config and an optional "
            "shadow what-if config."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--port",
        type=int,
        default=0,
        help="Listen for event lines on this TCP port (0 disables TCP).",
    )
    source.add_argument(
        "--stdin",
        action="store_true",
        help="Read event lines from stdin until EOF.",
    )
    source.add_argument(
        "--replay",
        default="",
        help="Replay a recorded QueryTrace file as a live stream, then exit.",
    )
    parser.add_argument(
        "--idle-timeout-s",
        type=float,
        default=60.0,
        help=(
            "Disconnect a TCP client after this many seconds of silence "
            "(0 disables the bound)."
        ),
    )
    parser.add_argument(
        "--window-s",
        type=float,
        default=60.0,
        help="Event-time window duration in seconds.",
    )
    parser.add_argument(
        "--lateness-s",
        type=float,
        default=0.0,
        help="Watermark lag: how much event-time disorder to tolerate.",
    )
    parser.add_argument(
        "--what-if-config",
        default="",
        help="JSON FleetSpec evaluated in shadow mode alongside the real fleet.",
    )
    parser.add_argument("--model", default="dlrm-rmc1", help="Zoo model to serve.")
    parser.add_argument("--platform", default="skylake", help="CPU platform name.")
    parser.add_argument(
        "--servers", type=int, default=2, help="Real fleet size (homogeneous)."
    )
    parser.add_argument(
        "--batch-size", type=int, default=256, help="Per-server CPU batch size."
    )
    parser.add_argument(
        "--num-cores", type=int, default=0, help="Cores per server (0 = all)."
    )
    parser.add_argument(
        "--policy",
        default="least-outstanding",
        choices=available_balancers(),
        help="Real fleet's balancing policy.",
    )
    parser.add_argument(
        "--sla-ms", type=float, default=100.0, help="p95 SLA target, milliseconds."
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="Worker processes for the per-window capacity searches.",
    )
    parser.add_argument(
        "--capacity-cache-dir",
        default="",
        help="Persistent warm-start cache (default: private temp directory).",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default="",
        help=(
            "Journal every observed window here and resume from the journal "
            "on restart without reprocessing (crash-safe; default: off)."
        ),
    )
    parser.add_argument(
        "--shed-above",
        type=int,
        default=0,
        help=(
            "Load shedding: when one ingest batch closes more than this many "
            "windows, absorb the oldest beyond the budget: their events are "
            "simulated, but their reports and capacity searches are skipped "
            "(0 disables shedding)."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="Capacity-search workload seed."
    )
    parser.add_argument(
        "--one-shot",
        action="store_true",
        help="With --port: exit after the first client disconnects.",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="Print the full per-window verdict table, not just summary lines.",
    )
    return parser


def build_pipeline(args: argparse.Namespace, sink=None) -> IngestPipeline:
    """Wire the window manager and twin the parsed arguments describe."""
    real = FleetSpec(
        name="real",
        model=args.model,
        platform=args.platform,
        num_servers=args.servers,
        batch_size=args.batch_size,
        num_cores=args.num_cores,
        policy=args.policy,
    )
    what_if: Optional[FleetSpec] = None
    if args.what_if_config:
        what_if = load_fleet_spec(args.what_if_config)
    twin = DigitalTwin(
        real=real,
        sla_latency_s=args.sla_ms / 1e3,
        load_generator=LoadGenerator(seed=args.seed),
        what_if=what_if,
        jobs=args.jobs,
        capacity_cache_dir=args.capacity_cache_dir or None,
    )
    windows = WindowManager(args.window_s, allowed_lateness_s=args.lateness_s)
    journal: Optional[WindowJournal] = None
    if getattr(args, "checkpoint_dir", ""):
        journal = WindowJournal(args.checkpoint_dir)
        restored = journal.load()
        if restored:
            # Resume: feed the journalled windows (no reports) and
            # seal the stream position so replayed events read as late.
            twin.restore(restored)
            windows.fast_forward(
                max(window.index for window in restored),
                max(
                    query.arrival_time
                    for window in restored
                    for query in window.queries
                ),
            )
    return IngestPipeline(
        windows,
        twin,
        sink=sink,
        journal=journal,
        shed_above=getattr(args, "shed_above", 0),
    )


def _print_report(report: TwinWindowReport, full: bool) -> None:
    if full:
        print(report.to_experiment_result().to_table())
    else:
        print(report.summary_line())


def _raise_keyboard_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    """Run the service with the requested transport until the stream ends.

    SIGINT and SIGTERM both shut the service down *cleanly*: open windows
    are flushed (so the final partial window is still reported), the usual
    end-of-run summaries print, and the exit status is 130 — never an
    asyncio traceback.
    """
    args = build_parser().parse_args(argv)
    if args.window_s <= 0:
        print(f"--window-s must be > 0, got {args.window_s}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.shed_above < 0:
        print(f"--shed-above must be >= 0, got {args.shed_above}", file=sys.stderr)
        return 2
    if args.idle_timeout_s < 0:
        print(
            f"--idle-timeout-s must be >= 0, got {args.idle_timeout_s}",
            file=sys.stderr,
        )
        return 2
    if not (args.port or args.stdin or args.replay):
        print(
            "pick an event source: --port N, --stdin, or --replay FILE",
            file=sys.stderr,
        )
        return 2

    def sink(report: TwinWindowReport) -> None:
        _print_report(report, args.report)

    # SIGTERM behaves like Ctrl-C on the blocking (replay / stdin) paths;
    # the TCP path installs its own loop-level handlers in serve_tcp.
    previous_term = None
    try:
        previous_term = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:
        pass  # not the main thread (embedded use): keep default delivery

    interrupted = False
    try:
        # One pool for the service's whole lifetime: every window's capacity
        # searches (both configs) reuse the same long-lived workers.
        with shared_pool(args.jobs):
            pipeline = build_pipeline(args, sink=sink)
            if args.checkpoint_dir and pipeline.twin.windows_observed:
                print(
                    f"resumed from checkpoint: "
                    f"{pipeline.twin.windows_observed} windows, "
                    f"{pipeline.twin.cumulative_queries} events",
                    file=sys.stderr,
                )
            with pipeline.twin:
                if args.replay:
                    try:
                        trace = QueryTrace.load(args.replay)
                        for query in trace:
                            pipeline.feed(query)
                    except KeyboardInterrupt:
                        interrupted = True
                    pipeline.finish()
                elif args.stdin:
                    try:
                        # Readiness marker, as on the TCP path: SIGTERM is
                        # already routed to the clean path when it prints.
                        print("reading events from stdin", file=sys.stderr)
                        pipeline.feed_lines(sys.stdin)
                    except KeyboardInterrupt:
                        interrupted = True
                    pipeline.finish()
                else:
                    def announce(bound_port: int) -> None:
                        # Printed only once the loop's signal handlers are
                        # live: a supervisor seeing this line may signal
                        # immediately and still get the clean path.
                        print(f"listening on port {bound_port}", file=sys.stderr)

                    try:
                        interrupted = asyncio.run(
                            serve_tcp(
                                pipeline,
                                port=args.port,
                                one_shot=args.one_shot,
                                on_listening=announce,
                                handle_signals=True,
                                idle_timeout_s=args.idle_timeout_s or None,
                            )
                        )
                    except KeyboardInterrupt:
                        interrupted = True  # loop handlers unavailable
                late = pipeline.windows.late_events
                if late or pipeline.malformed_lines:
                    print(
                        f"dropped: {late} late events, "
                        f"{pipeline.malformed_lines} malformed lines",
                        file=sys.stderr,
                    )
                if pipeline.shed_windows:
                    print(
                        f"load shedding: absorbed {pipeline.shed_windows} "
                        f"backlogged windows without reporting on them",
                        file=sys.stderr,
                    )
                diverged = sum(
                    1
                    for report in pipeline.reports
                    if report.shadow is not None and report.shadow.diverged
                )
                if pipeline.reports and pipeline.reports[-1].shadow is not None:
                    print(
                        f"shadow mode: {diverged}/{len(pipeline.reports)} "
                        f"windows diverged; last verdict: "
                        f"{pipeline.reports[-1].shadow.describe()}"
                    )
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
    if interrupted:
        print("interrupted: flushed final window report", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
