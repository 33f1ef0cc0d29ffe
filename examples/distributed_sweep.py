"""Distributed sweep walkthrough: a worker fleet that survives a host kill.

The paper's production-scale capacity sweeps (figure 13's policy × fleet
grids) parallelise across searches, and every driver in this repository
funnels that parallelism through one surface — ``WorkerPool.submit``.
:class:`repro.runtime.remote.RemoteWorkerPool` swaps the forked pool for a
fleet of worker processes reached over TCP, with zero call-site changes.

This example demonstrates the fault-tolerance contract end to end, on one
machine using loopback workers:

1. run a small policy × fleet-size capacity sweep serially — the ground
   truth;
2. start two worker processes, drain the same sweep through a
   :class:`RemoteWorkerPool` — and SIGKILL one worker while it holds task
   leases, mid-sweep;
3. show that the surviving fleet reassigned the dead host's leases and the
   distributed results are **bit-identical** to the serial run.

Run with::

    python examples/distributed_sweep.py

Exits non-zero if any distributed result diverges from the serial run.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.execution import build_engine_pair
from repro.queries import LoadGenerator
from repro.runtime.capacity import CapacitySearch, run_capacity_searches
from repro.runtime.remote import RemoteWorkerPool
from repro.serving import ServingConfig, homogeneous_fleet
from repro.utils import format_table

MODEL = "dlrm-rmc1"
PLATFORM = "skylake"
SLA_LATENCY_S = 0.1
POLICIES = ("least-outstanding", "power-of-two")
FLEET_SIZES = (1, 2)


def spawn_worker(slots=2):
    """Start one loopback worker subprocess; return (process, port)."""
    repo_root = Path(__file__).resolve().parent.parent
    command = [
        sys.executable,
        "-m",
        "repro.runtime.remote",
        "worker",
        "--port",
        "0",
        "--slots",
        str(slots),
        "--once",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=str(repo_root),
    )
    line = proc.stdout.readline()
    match = re.search(r"listening (\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"worker did not announce a port: {line!r}")
    return proc, int(match.group(1))


def build_searches(num_queries, iterations):
    """The sweep grid: every balancing policy crossed with every fleet size.

    Returns ``(label, search)`` pairs, one per grid point.
    """
    engines = build_engine_pair(MODEL, PLATFORM, None)
    config = ServingConfig(batch_size=256, num_cores=8)
    generator = LoadGenerator(seed=7)
    return [
        (
            f"{size} server(s) / {policy}",
            CapacitySearch.for_fleet(
                homogeneous_fleet(engines, config, size),
                policy,
                SLA_LATENCY_S,
                generator,
                num_queries=num_queries,
                iterations=iterations,
                max_queries=10 * num_queries,
            ),
        )
        for size in FLEET_SIZES
        for policy in POLICIES
    ]


def run_demo(num_queries=60, iterations=3):
    """Serial sweep, then the same sweep on a fleet that loses a host."""
    labelled = build_searches(num_queries, iterations)
    labels = [label for label, _search in labelled]
    searches = [search for _label, search in labelled]
    print(f"serial baseline: {len(searches)} capacity searches ...")
    serial = [search.run() for search in searches]

    print("starting two loopback workers (2 slots each) ...")
    fleet = [spawn_worker(slots=2), spawn_worker(slots=2)]
    pool = RemoteWorkerPool(
        [("127.0.0.1", port) for _proc, port in fleet],
        retry_backoff_s=0.01,
    )

    def assassin():
        # Wait until the sweep is flowing and a worker holds a task lease
        # right now, then SIGKILL it: a mid-task host failure.  The victim
        # is frozen (SIGSTOP) first, so it cannot finish the lease between
        # the check and the kill; after a short settle, a lease its link
        # still holds is one it can never complete.  If it holds none, thaw
        # it and look again.
        procs = {port: proc for proc, port in fleet}
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with pool._lock:
                started = pool._stats["completed"] >= 1
                busy = [
                    link for link in pool._links if link.alive and link.inflight
                ]
            if started and busy:
                victim = busy[0]
                port = victim.address[1]
                os.kill(procs[port].pid, signal.SIGSTOP)
                time.sleep(0.05)
                with pool._lock:
                    holds_lease = victim.alive and bool(victim.inflight)
                if holds_lease:
                    print(f"SIGKILL worker on port {port} (holds leases)")
                    procs[port].kill()
                    return
                os.kill(procs[port].pid, signal.SIGCONT)
            time.sleep(0.005)

    killer = threading.Thread(target=assassin, daemon=True)
    try:
        killer.start()
        distributed = run_capacity_searches(searches, jobs=4, pool=pool)
        killer.join(timeout=30)
    finally:
        pool.close()
        for proc, _port in fleet:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    stats = pool.stats
    rows = []
    mismatches = 0
    for label, one, many in zip(labels, serial, distributed):
        identical = (
            many.max_qps == one.max_qps
            and many.result.latencies_s == one.result.latencies_s
        )
        mismatches += 0 if identical else 1
        rows.append(
            [
                label,
                f"{one.max_qps:.1f}",
                f"{many.max_qps:.1f}",
                "yes" if identical else "NO",
            ]
        )
    print()
    print(
        format_table(
            ["search", "serial qps", "distributed qps", "bit-identical"], rows
        )
    )
    print(
        f"\nfleet: {stats['remote_workers']} workers, "
        f"{stats['worker_failures']} failed mid-sweep, "
        f"{stats['lease_reassignments']} leases reassigned, "
        f"{stats['local_fallbacks']} local fallbacks, "
        f"{stats['completed']}/{stats['submitted']} tasks completed"
    )
    if mismatches:
        print(f"{mismatches} result(s) diverged from the serial run")
        return 1
    print(
        "every distributed result is bit-identical to the serial sweep, "
        "despite the mid-task host kill"
    )
    return 0


def main():
    return run_demo()


if __name__ == "__main__":
    raise SystemExit(main())
