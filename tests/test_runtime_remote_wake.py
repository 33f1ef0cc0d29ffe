"""A remote worker sends each result the moment its task finishes.

The worker's session loop must not wait for an incoming frame, a poll
interval or its next heartbeat before shipping a finished result.  The
poll interval is stretched to 30 s and the heartbeat to 15 s, so a result
that arrives within a couple of seconds can only have been sent on
completion.
"""

import threading

from repro.runtime import remote
from repro.runtime.pool import Future
from repro.runtime.remote import RemoteWorkerPool, serve_worker


def _echo(value):
    return value


def test_result_leaves_worker_when_task_finishes(monkeypatch):
    monkeypatch.setattr(remote, "_POLL_INTERVAL_S", 30.0)
    stop = threading.Event()
    ports = []
    listening = threading.Event()

    def _announce(port):
        ports.append(port)
        listening.set()

    worker = threading.Thread(
        target=serve_worker,
        kwargs=dict(slots=1, once=True, on_listening=_announce, stop=stop),
        daemon=True,
    )
    worker.start()
    assert listening.wait(10.0)
    # Heartbeats every 15 s; the coordinator suspects nobody for 60 s.
    pool = RemoteWorkerPool([("127.0.0.1", ports[0])], liveness_timeout_s=60.0)
    try:
        assert pool.submit(_echo, 7).result(timeout=3.0) == 7
    finally:
        pool.close()
        stop.set()
        worker.join(timeout=10.0)
    assert not worker.is_alive()
    stats = pool.stats
    assert stats["remote_workers"] == 1
    assert stats["completed"] == 1
    assert stats["local_fallbacks"] == 0
    assert stats["lease_timeouts"] == 0
    assert stats["lease_reassignments"] == 0
    assert stats["duplicate_results"] == 0


def test_done_callback_runs_once_whether_added_before_or_after():
    calls = []
    pending = Future("a")
    pending.add_done_callback(calls.append)
    assert calls == []
    pending._resolve(1)
    done = Future("b")
    done._reject(ValueError("boom"))
    done.add_done_callback(calls.append)
    assert calls == [pending, done]
