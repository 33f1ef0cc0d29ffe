"""Distributed sweep execution: protocol, lease recovery, bit identity.

Four layers of coverage over :mod:`repro.runtime.remote`:

* **Framing** — length-prefixed pickle frames reassemble across split
  segments, bound their size, and fail loudly on EOF or garbage.
* **Futures surface** — :class:`RemoteWorkerPool` honours the exact
  ``submit`` / ``map`` / ``as_completed`` contract of the local pool,
  against real worker subprocesses on loopback.
* **Fault tolerance** — a SIGKILL'd worker's leases are reassigned under
  the retry budget; a silent (half-open) worker is suspected after the
  liveness timeout and its late results are discarded as duplicates; with
  zero live workers every task degrades to a recorded local run, never a
  hang; warm-start cache entries piggy-back home with results and corrupt
  or conflicting entries are kept out.
* **Bit identity** (the acceptance bar) — a figure-13-shaped capacity
  sweep drained by a two-host loopback fleet, with one host SIGKILL'd
  mid-task, produces results bit-identical to the serial run.
"""

import os
import pickle
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.execution.engine import build_engine_pair
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import (
    CapacityCache,
    CapacitySearch,
    _parallel_budget,
    apply_synced_entries,
    observe_cache_stores,
    run_capacity_searches,
)
from repro.runtime.pool import (
    TaskContext,
    WorkerCrashError,
    as_completed,
    shared_pool,
)
from repro.runtime.remote import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    RemoteWorkerPool,
    _FrameReader,
    parse_worker_addresses,
    send_frame,
)
from repro.serving.cluster import homogeneous_fleet
from repro.serving.simulator import ServingConfig

_REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Task functions: module-level so they pickle by reference; the worker
# subprocess imports this module through the PYTHONPATH the spawner sets.
# --------------------------------------------------------------------------- #


def _echo(value):
    return value


def _double(value):
    return value * 2


def _slow_double(value):
    time.sleep(0.3)
    return value * 2


def _boom(value):
    raise ValueError(f"boom {value}")


def _build_scale(payload):
    return {"scale": payload["scale"]}


def _scaled(context, item):
    return context["scale"] * item


def _kill_worker_host(value):
    """Kill the hosting worker process — but only under a remote worker.

    With ``--slots 1`` the worker shell runs tasks inline, so this takes
    the whole host down, exactly like a machine failure.  Run anywhere
    else (e.g. the coordinator's local fallback) it is harmless.
    """
    if os.environ.get("REPRO_REMOTE_WORKER"):
        os.kill(os.getpid(), signal.SIGKILL)
    return ("local", value)


def _store_entry(task):
    """Store one warm-start entry into a worker-side cache directory."""
    cache_dir, key, max_qps = task
    CapacityCache(cache_dir).store({"remote-test-key": key}, max_qps)
    return max_qps


# --------------------------------------------------------------------------- #
# Worker process harness
# --------------------------------------------------------------------------- #


def _spawn_worker(slots=1, once=True):
    """Start ``python -m repro.runtime.remote worker`` on an ephemeral port."""
    env = dict(os.environ)
    extra = os.pathsep.join(
        [str(_REPO_ROOT / "src"), str(_REPO_ROOT / "tests")]
    )
    env["PYTHONPATH"] = extra + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable,
        "-m",
        "repro.runtime.remote",
        "worker",
        "--port",
        "0",
        "--slots",
        str(slots),
    ]
    if once:
        command.append("--once")
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        cwd=str(_REPO_ROOT),
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = re.search(r"listening (\d+)", line)
    if not match:
        proc.kill()
        proc.wait(timeout=10)
        raise RuntimeError(f"worker did not announce a port: {line!r}")
    return proc, int(match.group(1))


@pytest.fixture
def worker_fleet():
    """Spawner for loopback worker subprocesses, killed at teardown."""
    procs = []

    def spawn(slots=1, once=True):
        proc, port = _spawn_worker(slots=slots, once=once)
        procs.append(proc)
        return proc, port

    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


class _ScriptedWorker:
    """A hand-rolled in-thread worker the tests can misbehave on demand.

    Handshakes like a real worker, records every task frame it receives,
    and then does *nothing* unless the test tells it to — the shape of a
    half-open host whose process is alive but no longer making progress.
    """

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.listener.settimeout(10.0)
        self.port = self.listener.getsockname()[1]
        self.conn = None
        self.tasks = []
        self.error = None
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            conn, _addr = self.listener.accept()
            conn.settimeout(5.0)
            reader = _FrameReader(conn)
            hello = reader.poll(5.0)
            if not hello or hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello!r}")
            send_frame(
                conn,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "worker_id": "scripted",
                    "slots": 1,
                    "pid": 0,
                },
                5.0,
            )
            self.conn = conn
            while not self._stop.is_set():
                try:
                    message = reader.poll(0.1)
                except (ConnectionClosed, OSError):
                    return
                if message is not None and message.get("type") == "task":
                    self.tasks.append(message)
        except Exception as error:  # surfaced by the test, not swallowed
            self.error = error

    def wait_task(self, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.error is not None:
                raise self.error
            if self.tasks:
                return self.tasks[0]
            time.sleep(0.01)
        raise AssertionError("scripted worker never received a task")

    def send_result(self, task_id, value):
        send_frame(
            self.conn,
            {
                "type": "result",
                "task_id": task_id,
                "ok": True,
                "value": value,
                "cache_entries": [],
            },
            5.0,
        )

    def close(self):
        self._stop.set()
        self.thread.join(timeout=5.0)
        for sock in (self.conn, self.listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass


def _dead_port():
    """A loopback port with nothing listening behind it."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _wait_for(predicate, timeout=10.0, message="condition never became true"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #


class TestFrameProtocol:
    def _pair(self):
        near, far = socket.socketpair()
        return near, far

    def test_frame_round_trip(self):
        near, far = self._pair()
        try:
            send_frame(near, {"type": "x", "n": 1}, 5.0)
            assert _FrameReader(far).poll(5.0) == {"type": "x", "n": 1}
        finally:
            near.close()
            far.close()

    def test_split_frame_reassembles_across_polls(self):
        near, far = self._pair()
        try:
            payload = pickle.dumps({"type": "split"})
            wire = struct.pack(">I", len(payload)) + payload
            reader = _FrameReader(far)
            near.sendall(wire[:5])
            # Only a partial frame arrived: poll times out, bytes buffered.
            assert reader.poll(0.05) is None
            near.sendall(wire[5:])
            assert reader.poll(5.0) == {"type": "split"}
        finally:
            near.close()
            far.close()

    def test_eof_raises_connection_closed(self):
        near, far = self._pair()
        try:
            near.close()
            with pytest.raises(ConnectionClosed):
                _FrameReader(far).poll(5.0)
        finally:
            far.close()

    def test_oversized_length_prefix_rejected(self):
        near, far = self._pair()
        try:
            near.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                _FrameReader(far).poll(5.0)
        finally:
            near.close()
            far.close()

    def test_non_dict_payload_rejected(self):
        near, far = self._pair()
        try:
            payload = pickle.dumps([1, 2, 3])
            near.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="message dict"):
                _FrameReader(far).poll(5.0)
        finally:
            near.close()
            far.close()

    def test_parse_worker_addresses(self):
        assert parse_worker_addresses("a:1, b:2,") == [("a", 1), ("b", 2)]
        with pytest.raises(ValueError, match="host:port"):
            parse_worker_addresses("nocolon")
        with pytest.raises(ValueError, match="no worker addresses"):
            parse_worker_addresses(" , ")


# --------------------------------------------------------------------------- #
# The futures surface, against real loopback workers
# --------------------------------------------------------------------------- #


class TestRemotePoolSurface:
    def test_submit_map_stats_and_clean_shutdown(self, worker_fleet):
        proc, port = worker_fleet(slots=2)
        pool = RemoteWorkerPool([("127.0.0.1", port)], retry_backoff_s=0.01)
        try:
            assert pool.spans_hosts
            assert pool.live_workers == 1
            assert pool.max_workers == 2  # the fleet's advertised slots
            futures = [pool.submit(_echo, value) for value in range(3)]
            assert sorted(f.result() for f in as_completed(futures)) == [0, 1, 2]
            assert pool.map(_double, range(5)) == [0, 2, 4, 6, 8]
        finally:
            pool.close()
        stats = pool.stats
        assert stats["submitted"] == 8
        assert stats["completed"] == 8
        assert stats["remote_workers"] == 1
        assert stats["local_fallbacks"] == 0
        assert stats["duplicate_results"] == 0
        # close() sent a shutdown; the --once worker exits cleanly.
        assert proc.wait(timeout=10) == 0

    def test_context_tasks_build_remotely(self, worker_fleet):
        _proc, port = worker_fleet(slots=1)
        context = TaskContext(builder=_build_scale, payload={"scale": 3})
        with RemoteWorkerPool([("127.0.0.1", port)]) as pool:
            futures = [
                pool.submit(_scaled, item, context=context) for item in (1, 2, 3)
            ]
            assert [f.result() for f in futures] == [3, 6, 9]
        assert pool.stats["local_fallbacks"] == 0

    def test_ordinary_exceptions_propagate_without_retry(self, worker_fleet):
        _proc, port = worker_fleet(slots=1)
        with RemoteWorkerPool([("127.0.0.1", port)]) as pool:
            bad = pool.submit(_boom, 7)
            with pytest.raises(ValueError, match="boom 7"):
                bad.result()
            assert pool.submit(_echo, "after").result() == "after"
        stats = pool.stats
        assert stats["retries"] == 0
        assert stats["quarantined"] == 0
        assert stats["worker_failures"] == 0

    def test_shared_pool_adopts_remote_pool(self, worker_fleet):
        _proc, port = worker_fleet(slots=1)
        pool = RemoteWorkerPool([("127.0.0.1", port)])
        with shared_pool(pool=pool) as active:
            assert active is pool
            assert active.map(_double, [10]) == [20]
        # Ownership transferred: leaving the scope closed the fleet.
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_echo, 1)

    def test_spans_hosts_exempts_remote_pool_from_core_clamp(self, monkeypatch):
        import repro.runtime.capacity as runtime_capacity

        monkeypatch.setattr(runtime_capacity, "_host_cores", lambda: 1)
        local = SimpleNamespace(max_workers=6, spans_hosts=False)
        remote = SimpleNamespace(max_workers=6, spans_hosts=True)
        assert _parallel_budget(8, local) == 1  # clamped to this host
        assert _parallel_budget(8, remote) == 6  # slots live on other hosts


# --------------------------------------------------------------------------- #
# Fault tolerance
# --------------------------------------------------------------------------- #


class TestLeaseRecovery:
    def test_sigkilled_worker_leases_reassigned_mid_task(self, worker_fleet):
        fleet = [worker_fleet(slots=1), worker_fleet(slots=1)]
        addresses = [("127.0.0.1", port) for _proc, port in fleet]
        pool = RemoteWorkerPool(addresses, retry_backoff_s=0.01)
        try:
            assert pool.live_workers == 2
            futures = [pool.submit(_slow_double, value) for value in range(6)]
            iterator = as_completed(futures)
            next(iterator)  # both workers are warm and mid-task now
            fleet[0][0].kill()
            results = sorted(f.result() for f in futures)
        finally:
            pool.close()
        assert results == [0, 2, 4, 6, 8, 10]
        stats = pool.stats
        assert stats["completed"] == 6
        assert stats["worker_failures"] == 1
        assert stats["lease_reassignments"] >= 1
        assert stats["quarantined"] == 0

    def test_host_poison_task_quarantined_with_zero_budget(self, worker_fleet):
        _proc, port = worker_fleet(slots=1)
        pool = RemoteWorkerPool(
            [("127.0.0.1", port)], max_task_retries=0, retry_backoff_s=0.0
        )
        try:
            bad = pool.submit(_kill_worker_host, "p")
            with pytest.raises(WorkerCrashError, match="quarantined"):
                bad.result()
            # The fleet is gone, but the pool still completes work locally.
            assert pool.submit(_echo, 1).result() == 1
        finally:
            pool.close()
        stats = pool.stats
        assert stats["quarantined"] == 1
        assert stats["worker_failures"] == 1
        assert stats["lease_reassignments"] == 0
        assert stats["local_fallbacks"] == 1

    def test_silent_worker_suspected_and_late_result_discarded(self):
        scripted = _ScriptedWorker()
        pool = RemoteWorkerPool(
            [("127.0.0.1", scripted.port)],
            liveness_timeout_s=0.4,
            retry_backoff_s=0.0,
        )
        try:
            future = pool.submit(_echo, 5)
            task = scripted.wait_task()
            # The lease times out on the silent host; with no other live
            # worker the reassignment lands on the local fallback path.
            assert future.result(timeout=30) == 5
            stats = pool.stats
            assert stats["lease_timeouts"] == 1
            assert stats["lease_reassignments"] == 1
            assert stats["local_fallbacks"] == 1
            # The host wakes up and delivers the stale lease's result: the
            # link recovers, but the duplicate is discarded, not re-counted.
            scripted.send_result(task["task_id"], 999)
            _wait_for(
                lambda: pool.stats["duplicate_results"] == 1,
                message="late result was never discarded as a duplicate",
            )
            assert future.result() == 5
            assert pool.stats["suspect_recoveries"] == 1
            assert pool.stats["completed"] == 1
        finally:
            pool.close()
            scripted.close()


class TestGracefulDegradation:
    def test_unreachable_workers_degrade_to_local_execution(self):
        pool = RemoteWorkerPool(
            [("127.0.0.1", _dead_port())], connect_timeout_s=0.5
        )
        try:
            assert pool.live_workers == 0
            assert pool.submit(_double, 21).result() == 42
            assert pool.map(_echo, [1, 2, 3]) == [1, 2, 3]
        finally:
            pool.close()
        stats = pool.stats
        assert stats["connect_failures"] == 1
        assert stats["remote_workers"] == 0
        assert stats["local_fallbacks"] == 4
        assert stats["completed"] == 4

    def test_losing_the_whole_fleet_mid_queue_drains_locally(self, worker_fleet):
        proc, port = worker_fleet(slots=1)
        pool = RemoteWorkerPool([("127.0.0.1", port)], retry_backoff_s=0.0)
        try:
            futures = [pool.submit(_slow_double, value) for value in range(4)]
            proc.kill()  # one lease in flight, three tasks queued
            results = [f.result(timeout=30) for f in futures]
        finally:
            pool.close()
        assert results == [0, 2, 4, 6]
        stats = pool.stats
        assert stats["completed"] == 4
        assert stats["worker_failures"] == 1
        assert stats["local_fallbacks"] >= 3


class TestCacheSync:
    def test_observe_cache_stores_records_and_unhooks(self, tmp_path):
        cache = CapacityCache(tmp_path)
        with observe_cache_stores() as entries:
            cache.store({"k": 1}, 12.0)
        assert entries == [({"k": 1}, 12.0)]
        cache.store({"k": 2}, 13.0)  # observer removed: not recorded
        assert len(entries) == 1

    def test_apply_synced_entries_validates_defensively(self, tmp_path):
        cache = CapacityCache(tmp_path)
        entries = [
            ({"k": 1}, 10.0),  # fresh: applied
            ({"k": 1}, 11.0),  # different value for same key: conflict
            ("garbage",),  # wrong shape
            ({"k": 2}, -5.0),  # non-positive capacity
            (["not", "dict"], 3.0),  # non-dict signature
            ({"k": 3}, float("nan")),  # non-finite capacity
            ({"k": 4}, float("inf")),  # non-finite capacity
            ({"k": 5}, "1e999"),  # not a real number
            ({"k": 6}, True),  # a bool is not a capacity
        ]
        assert apply_synced_entries(cache, entries) == {
            "applied": 1,
            "conflicts": 1,
            "rejected": 7,
        }
        # First-writer wins; re-applying the same value is a silent no-op.
        assert cache.load({"k": 1}, count=False) == 10.0
        assert apply_synced_entries(cache, [({"k": 1}, 10.0)]) == {
            "applied": 0,
            "conflicts": 0,
            "rejected": 0,
        }

    def test_worker_cache_entries_piggy_back_home(self, worker_fleet, tmp_path):
        _proc, port = worker_fleet(slots=1)
        coordinator_dir = tmp_path / "coordinator"
        worker_dir = str(tmp_path / "workerside")
        coordinator_cache = CapacityCache(coordinator_dir)
        coordinator_cache.store({"remote-test-key": "b"}, 50.0)
        pool = RemoteWorkerPool(
            [("127.0.0.1", port)], cache_sync=coordinator_cache
        )
        try:
            assert pool.submit(_store_entry, (worker_dir, "a", 123.0)).result() == 123.0
            assert pool.submit(_store_entry, (worker_dir, "b", 99.0)).result() == 99.0
        finally:
            pool.close()
        # The fresh entry crossed hosts; the conflicting one was kept out.
        assert coordinator_cache.load({"remote-test-key": "a"}, count=False) == 123.0
        assert coordinator_cache.load({"remote-test-key": "b"}, count=False) == 50.0
        stats = pool.stats
        assert stats["cache_entries_applied"] == 1
        assert stats["cache_conflicts"] == 1
        assert stats["cache_rejected"] == 0


# --------------------------------------------------------------------------- #
# Acceptance: a fig13-shaped sweep survives a mid-task host kill bit-identically
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def engines():
    return build_engine_pair("dlrm-rmc1", "skylake", None)


@pytest.fixture(scope="module")
def config():
    return ServingConfig(batch_size=256, num_cores=8)


SWEEP_KWARGS = dict(num_queries=60, iterations=3, max_queries=600)


class TestBitIdenticalSweep:
    def test_sweep_with_host_killed_mid_task_matches_serial(
        self, engines, config, worker_fleet
    ):
        generator = LoadGenerator(seed=7)
        searches = [
            CapacitySearch.for_fleet(
                homogeneous_fleet(engines, config, size), policy, sla, generator,
                **SWEEP_KWARGS,
            )
            for size in (1, 2)
            for policy in ("least-outstanding", "power-of-two")
            for sla in (0.08, 0.1)
        ]
        serial = [search.run() for search in searches]

        fleet = [worker_fleet(slots=2), worker_fleet(slots=2)]
        addresses = [("127.0.0.1", port) for _proc, port in fleet]
        pool = RemoteWorkerPool(addresses, retry_backoff_s=0.01)
        killed = threading.Event()

        def _assassin():
            # Once the sweep is flowing, SIGKILL a worker that is holding
            # at least one task lease when it dies — a mid-task host loss.
            # The victim is frozen first (SIGSTOP) so it cannot finish the
            # lease between the check and the kill; after a short settle,
            # any result it sent before freezing has been read, so a lease
            # its link still holds under the pool's lock is one it can never
            # complete.  If it holds none, thaw it and look again.
            procs = {port: proc for proc, port in fleet}
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                with pool._lock:
                    started = pool._stats["completed"] >= 1
                    busy = [
                        link
                        for link in pool._links
                        if link.alive and link.inflight
                    ]
                if started and busy:
                    victim = busy[0]
                    proc = procs[victim.address[1]]
                    os.kill(proc.pid, signal.SIGSTOP)
                    time.sleep(0.05)
                    with pool._lock:
                        if victim.alive and victim.inflight:
                            proc.kill()
                            killed.set()
                            return
                    os.kill(proc.pid, signal.SIGCONT)
                time.sleep(0.005)

        assassin = threading.Thread(target=_assassin, daemon=True)
        try:
            assert pool.live_workers == 2
            assassin.start()
            distributed = run_capacity_searches(searches, jobs=4, pool=pool)
            assassin.join(timeout=30)
        finally:
            pool.close()

        assert killed.is_set(), "no busy worker was ever available to kill"
        stats = pool.stats
        assert stats["worker_failures"] == 1
        assert stats["lease_reassignments"] >= 1
        assert stats["quarantined"] == 0
        for one, many in zip(serial, distributed):
            assert many.max_qps == one.max_qps
            assert many.result.p95_latency_s == one.result.p95_latency_s
            assert many.result.latencies_s == one.result.latencies_s
