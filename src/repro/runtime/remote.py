"""Distributed sweep execution: a remote worker fleet behind ``WorkerPool``.

The paper's production-scale grids (figure 13's policy × fleet × SLA
sweeps) are embarrassingly parallel across *searches*, and every driver in
this repository already funnels that parallelism through one surface:
``WorkerPool.submit`` / :func:`repro.runtime.pool.as_completed`.  This
module supplies a second executor behind that same surface, so a sweep can
be drained by worker processes on other machines with zero call-site
changes:

* **worker** — ``python -m repro.runtime.remote worker --port 9000`` starts
  a worker that listens for a coordinator, pulls pickled tasks over a
  length-prefixed TCP protocol, runs them on a local (self-healing)
  :class:`~repro.runtime.pool.WorkerPool`, and streams results back;
* **coordinator** — :class:`RemoteWorkerPool` dials a list of
  ``host:port`` workers and is a drop-in :class:`WorkerPool`: the capacity
  searches, the sweep runner, and the figure drivers submit into it exactly
  as they would into a forked pool.

Fault tolerance is the substance, not an add-on.  Liveness is tracked per
link by heartbeats; a worker that goes silent past the configured detect
delay is marked *suspect* and every task it holds a lease on is reassigned
— with the pool's deterministic seed-derived backoff and the same
``max_task_retries`` budget and :class:`~repro.runtime.pool.WorkerCrashError`
quarantine semantics as local crash recovery.  Task ids are idempotent: if
a presumed-dead worker later delivers the result of a reassigned task, the
duplicate is discarded (and counted), never double-counted.  Every blocking
socket operation carries an explicit timeout, and a coordinator that loses
*all* of its workers degrades to local inline execution — recorded in
``stats["local_fallbacks"]`` — rather than hanging.

Workers additionally piggy-back the :class:`~repro.runtime.capacity.
CapacityCache` entries their tasks stored onto each result frame, so a
fleet of machines shares one warm-start cache without a network
filesystem; corrupt or conflicting entries are tolerated and counted
(:func:`repro.runtime.capacity.apply_synced_entries`).

Because the same deterministic task functions run wherever the task lands
— remote host, reassigned host, or coordinator fallback — a sweep drained
by this executor is bit-identical to the serial run even when a worker is
SIGKILL'd mid-task (asserted in ``tests/test_runtime_remote.py``).

The wire format is pickled Python objects.  Pickle executes code on load:
run this only on a trusted network segment between machines you control,
exactly like ``multiprocessing``'s own socket transports.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import queue
import select
import socket
import struct
import sys
import threading
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.runtime.pool import (
    Future,
    TaskContext,
    WorkerCrashError,
    WorkerPool,
    _run_contextual_task,
    _TaskRecord,
    in_worker,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runtime.capacity import CapacityCache

#: Bumped when the wire format changes; hello/welcome frames carry it and a
#: mismatch ends the handshake instead of corrupting a run later.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame.  Warmed search contexts measure a few MiB;
#: anything near this bound is a corrupted length prefix, not a real task.
MAX_FRAME_BYTES = 256 * 1024 * 1024

DEFAULT_IO_TIMEOUT_S = 30.0
DEFAULT_CONNECT_TIMEOUT_S = 5.0
#: Detect delay: how long a link may stay silent before its leases move.
DEFAULT_LIVENESS_TIMEOUT_S = 5.0

#: How long the coordinator's receive loops block before re-checking liveness
#: and shutdown flags; bounds both failure-detection latency jitter and
#: close() latency.  The worker's loop wakes on frames, finished tasks and
#: its heartbeat deadline instead.
_POLL_INTERVAL_S = 0.1

_RECV_CHUNK = 1 << 16


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid protocol frame."""


class ConnectionClosed(ProtocolError):
    """The peer closed its end of the connection (EOF mid-stream)."""


class RemoteTaskError(RuntimeError):
    """A remote task's result (or its exception) could not be shipped back."""


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #


def send_frame(sock: socket.socket, message: Dict[str, Any], timeout_s: float) -> None:
    """Write one length-prefixed pickled message with an explicit timeout."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    sock.settimeout(timeout_s)
    sock.sendall(struct.pack(">I", len(payload)) + payload)


class _FrameReader:
    """Incremental frame parser over one socket.

    ``poll`` returns one complete message, or ``None`` if no complete frame
    arrived within the timeout — partial bytes stay buffered, so a frame
    split across many segments is reassembled over successive polls without
    ever blocking past the deadline.
    """

    __slots__ = ("_sock", "_buffer")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()

    def _take_frame(self) -> Optional[Dict[str, Any]]:
        if len(self._buffer) < 4:
            return None
        (length,) = struct.unpack_from(">I", self._buffer, 0)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        if len(self._buffer) < 4 + length:
            return None
        payload = bytes(self._buffer[4 : 4 + length])
        del self._buffer[: 4 + length]
        message = pickle.loads(payload)
        if not isinstance(message, dict):
            raise ProtocolError(
                f"frame payload must be a message dict, got {type(message).__name__}"
            )
        return message

    def poll(
        self, timeout_s: float, wake: Optional[socket.socket] = None
    ) -> Optional[Dict[str, Any]]:
        """One message, or None on timeout; raises :class:`ConnectionClosed`
        on EOF and :class:`ProtocolError` on garbage.

        A readable ``wake`` socket also ends the wait with None; the caller
        drains it.
        """
        watched = [self._sock] if wake is None else [self._sock, wake]
        deadline = time.monotonic() + timeout_s
        while True:
            frame = self._take_frame()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            # Wait for readability with select, not the socket timeout: the
            # timeout is shared state on the fd, and a concurrent
            # ``send_frame`` (heartbeats, task dispatch) rewriting it must
            # not stretch this recv past the poll deadline.
            try:
                readable, _, _ = select.select(watched, [], [], remaining)
            except (OSError, ValueError) as error:
                raise ConnectionClosed(f"socket unusable: {error}") from None
            if self._sock not in readable:
                return None
            self._sock.settimeout(max(remaining, 0.001))
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except socket.timeout:
                return None
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            self._buffer.extend(chunk)


def parse_worker_addresses(spec: str) -> List[Tuple[str, int]]:
    """Parse a ``host:port,host:port,...`` CLI spec into address tuples."""
    addresses: List[Tuple[str, int]] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, sep, port_text = chunk.rpartition(":")
        if not sep or not host:
            raise ValueError(f"worker address must be host:port, got {chunk!r}")
        addresses.append((host, int(port_text)))
    if not addresses:
        raise ValueError(f"no worker addresses in {spec!r}")
    return addresses


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #


def _run_remote_task(
    spec_bytes: bytes,
) -> Tuple[Any, List[Tuple[Dict[str, Any], float]]]:
    """Worker-process entry: run one shipped task, collecting cache stores.

    Runs inside the worker host's own (grand-child) pool process.  Every
    ``CapacityCache.store`` the task performs is recorded and returned with
    the value, so the coordinator can fold the entries into its cache —
    that is how a fleet shares one warm-start cache without a network
    filesystem.
    """
    from repro.runtime.capacity import observe_cache_stores

    spec = pickle.loads(spec_bytes)
    kind = spec[0]
    with observe_cache_stores() as entries:
        if kind == "context":
            value = _run_contextual_task(spec[1])
        elif kind == "plain":
            _, fn, item = spec
            value = fn(item)
        else:
            raise ProtocolError(f"unknown task kind {kind!r}")
    return value, list(entries)


def _send_result(
    conn: socket.socket, task_id: int, future: Future, timeout_s: float
) -> None:
    """Ship one finished task home, degrading unpicklable outcomes to errors."""
    message: Dict[str, Any]
    try:
        value, entries = future.result(timeout=0)
    except BaseException as error:  # shipped to the coordinator, not raised here
        message = {"type": "result", "task_id": task_id, "ok": False, "error": error}
    else:
        message = {
            "type": "result",
            "task_id": task_id,
            "ok": True,
            "value": value,
            "cache_entries": entries,
        }
    try:
        send_frame(conn, message, timeout_s)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        fallback = {
            "type": "result",
            "task_id": task_id,
            "ok": False,
            "error": RemoteTaskError(f"result could not be pickled: {error!r}"),
        }
        send_frame(conn, fallback, timeout_s)


def _pool_warmup(_item: Any) -> None:
    """No-op task that forces the session pool to fork its processes."""
    return None


def _serve_session(conn: socket.socket, pool: WorkerPool, io_timeout_s: float) -> None:
    """Serve one coordinator for the lifetime of its connection.

    The session thread owns all socket IO (so heartbeats keep flowing while
    tasks run) and sends each result as soon as its task finishes; a helper
    thread feeds tasks into a per-session local
    :class:`WorkerPool`, which supplies self-healing for crashes of the
    task processes on *this* host — the coordinator's lease machinery only
    has to cover the loss of the whole worker.  The pool arrives *already
    forked* (before this connection was accepted), so its task processes
    never inherit the session fd — a SIGKILL of this shell therefore
    delivers EOF to the coordinator immediately instead of leaving the
    socket propped open by orphaned children.
    """
    conn.settimeout(io_timeout_s)
    reader = _FrameReader(conn)
    hello = reader.poll(io_timeout_s)
    if hello is None or hello.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {hello!r}")
    if hello.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol mismatch: coordinator speaks {hello.get('protocol')!r}, "
            f"worker speaks {PROTOCOL_VERSION}"
        )
    heartbeat_interval_s = max(0.02, float(hello.get("heartbeat_interval_s", 1.0)))
    send_frame(
        conn,
        {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "worker_id": f"{socket.gethostname()}:{os.getpid()}",
            "slots": pool.max_workers,
            "pid": os.getpid(),
        },
        io_timeout_s,
    )
    inbox: "queue.Queue[Optional[Tuple[int, bytes]]]" = queue.Queue()
    finished: "queue.SimpleQueue[Tuple[int, Future]]" = queue.SimpleQueue()
    # A finished task queues itself and writes one byte here, so the loop
    # below sends its result at once, not at the next frame or heartbeat.
    wake_recv, wake_send = socket.socketpair()
    wake_recv.setblocking(False)
    wake_send.setblocking(False)

    def _finished(task_id: int, future: Future) -> None:
        finished.put((task_id, future))
        try:
            wake_send.send(b"\0")
        except OSError:
            pass  # a full pair already holds a wake-up; a closed one, no session

    def _submitter() -> None:
        while True:
            job = inbox.get()
            if job is None:
                return
            task_id, spec = job
            future = pool.submit(_run_remote_task, spec)
            future.add_done_callback(functools.partial(_finished, task_id))

    submitter = threading.Thread(
        target=_submitter, daemon=True, name="remote-worker-submit"
    )
    submitter.start()
    next_beat = time.monotonic() + heartbeat_interval_s
    try:
        while True:
            try:
                message = reader.poll(
                    max(0.0, next_beat - time.monotonic()), wake=wake_recv
                )
            except ConnectionClosed:
                return  # the coordinator went away: this session is over
            if message is not None:
                kind = message.get("type")
                if kind == "task":
                    inbox.put((int(message["task_id"]), bytes(message["spec"])))
                elif kind == "shutdown":
                    return
                # unknown frame types are ignored for forward compatibility
            try:
                wake_recv.recv(_RECV_CHUNK)  # drain before taking results
            except BlockingIOError:
                pass
            while not finished.empty():
                task_id, future = finished.get_nowait()
                _send_result(conn, task_id, future, io_timeout_s)
            now = time.monotonic()
            if now >= next_beat:
                send_frame(conn, {"type": "heartbeat"}, io_timeout_s)
                next_beat = now + heartbeat_interval_s
    finally:
        inbox.put(None)
        submitter.join(timeout=1.0)
        wake_recv.close()
        wake_send.close()


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    slots: int = 1,
    once: bool = False,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
    accept_timeout_s: float = 0.5,
    on_listening: Optional[Callable[[int], None]] = None,
    stop: Optional[threading.Event] = None,
) -> int:
    """Run a worker: listen on ``host:port`` and serve coordinator sessions.

    ``port=0`` binds an ephemeral port, announced through ``on_listening``
    (the CLI prints it).  ``once`` exits after the first session — what the
    tests and the smoke example use so workers never outlive their run.
    Returns the number of sessions served.

    Each session gets a fresh :class:`WorkerPool`, *forked before its
    connection is accepted*: the pool's task processes must never inherit
    a session fd (they would keep the coordinator's socket open — and its
    failure detector blind — after this shell is SIGKILL'd), and a fresh
    pool per session keeps context-cache tokens from different
    coordinators (which can collide across hosts: tokens are
    ``(pid, counter)``) from ever sharing one worker cache.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(8)
    listener.settimeout(accept_timeout_s)
    if on_listening is not None:
        on_listening(listener.getsockname()[1])
    sessions = 0
    pool: Optional[WorkerPool] = None
    try:
        while stop is None or not stop.is_set():
            if pool is None:
                pool = WorkerPool(max_workers=slots)
                pool.submit(_pool_warmup, None).result()  # fork before accept
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            try:
                _serve_session(conn, pool, io_timeout_s=io_timeout_s)
            except (OSError, ProtocolError, pickle.UnpicklingError, EOFError):
                pass  # a misbehaving coordinator ends its own session only
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
                pool.close()
                pool = None
            sessions += 1
            if once:
                break
    finally:
        if pool is not None:
            pool.close()
        listener.close()
    return sessions


# --------------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------------- #


class _RemoteRecord(_TaskRecord):
    """One submitted task plus the settle guard duplicate discard rides on."""

    __slots__ = ("settled",)

    def __init__(
        self,
        future: Future,
        fn: Callable[..., Any],
        item: Any,
        context: Optional[TaskContext],
        seq: int,
    ) -> None:
        super().__init__(future, fn, item, context, seq=seq)
        self.settled = False


class _WorkerLink:
    """Coordinator-side state for one connected worker."""

    __slots__ = (
        "index",
        "address",
        "sock",
        "reader",
        "worker_id",
        "slots",
        "send_lock",
        "inflight",
        "last_seen",
        "alive",
        "suspect",
        "thread",
    )

    def __init__(
        self,
        index: int,
        address: Tuple[str, int],
        sock: socket.socket,
        reader: _FrameReader,
        worker_id: str,
        slots: int,
    ) -> None:
        self.index = index
        self.address = address
        self.sock = sock
        self.reader = reader
        self.worker_id = worker_id
        self.slots = slots
        self.send_lock = threading.Lock()
        self.inflight: Dict[int, _RemoteRecord] = {}
        self.last_seen = time.monotonic()
        self.alive = True  # socket believed usable
        self.suspect = False  # heartbeat overdue; leases reassigned
        self.thread: Optional[threading.Thread] = None


class RemoteWorkerPool(WorkerPool):
    """A :class:`WorkerPool` whose workers live on other hosts.

    Dials each ``host:port`` in ``workers`` at construction; addresses that
    refuse or time out are tolerated and counted
    (``stats["connect_failures"]``).  ``max_workers`` becomes the fleet's
    total advertised slots, and because :attr:`spans_hosts` is set, budget
    planners skip the local-core clamp when sizing work against it.

    Failure semantics mirror the local pool's crash handling, lifted to
    host granularity: a silent link is *suspected* after
    ``liveness_timeout_s`` and a broken one declared dead; either way its
    in-flight leases are reassigned with the deterministic seed-derived
    backoff, each task burning one attempt of the same
    ``max_task_retries`` budget before quarantine with
    :class:`WorkerCrashError`.  Late results for reassigned task ids are
    discarded (``stats["duplicate_results"]``).  With zero live workers the
    pool runs tasks inline in the coordinator — recorded in
    ``stats["local_fallbacks"]`` — so a fleet-wide outage degrades a
    distributed sweep to a slow correct run, never a hang.

    ``cache_sync`` (a :class:`~repro.runtime.capacity.CapacityCache` or a
    cache directory path) merges the warm-start entries each result frame
    piggy-backs home; conflicting or corrupt entries are kept out and
    counted rather than trusted.
    """

    spans_hosts = True

    def __init__(
        self,
        workers: Union[str, Iterable[Union[str, Tuple[str, int]]]],
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
        io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
        liveness_timeout_s: float = DEFAULT_LIVENESS_TIMEOUT_S,
        max_task_retries: int = 3,
        retry_backoff_s: float = 0.05,
        backoff_seed: int = 0,
        sleeper: Optional[Callable[[float], None]] = None,
        cache_sync: Optional[Union[str, "os.PathLike[str]", "CapacityCache"]] = None,
    ) -> None:
        super().__init__(
            max_workers=1,
            max_task_retries=max_task_retries,
            retry_backoff_s=retry_backoff_s,
            backoff_seed=backoff_seed,
            sleeper=sleeper,
        )
        self._connect_timeout_s = connect_timeout_s
        self._io_timeout_s = io_timeout_s
        self._liveness_timeout_s = liveness_timeout_s
        self._heartbeat_interval_s = max(0.02, liveness_timeout_s / 4.0)
        self._closed = False
        self._records: Dict[int, _RemoteRecord] = {}
        self._queue: Deque[_RemoteRecord] = deque()
        self._links: List[_WorkerLink] = []
        self._cache = self._resolve_cache(cache_sync)
        self._stats.update(
            {
                "remote_workers": 0,
                "connect_failures": 0,
                "worker_failures": 0,
                "lease_timeouts": 0,
                "lease_reassignments": 0,
                "suspect_recoveries": 0,
                "duplicate_results": 0,
                "local_fallbacks": 0,
                "cache_entries_applied": 0,
                "cache_conflicts": 0,
                "cache_rejected": 0,
            }
        )
        for index, address in enumerate(self._normalize_addresses(workers)):
            link = self._connect(index, address)
            if link is not None:
                self._links.append(link)
        self._stats["remote_workers"] = len(self._links)
        self._max_workers = max(1, sum(link.slots for link in self._links))
        for link in self._links:
            thread = threading.Thread(
                target=self._serve_link,
                args=(link,),
                daemon=True,
                name=f"remote-link-{link.index}",
            )
            link.thread = thread
            thread.start()

    @staticmethod
    def _normalize_addresses(
        workers: Union[str, Iterable[Union[str, Tuple[str, int]]]]
    ) -> List[Tuple[str, int]]:
        if isinstance(workers, str):
            return parse_worker_addresses(workers)
        addresses: List[Tuple[str, int]] = []
        for worker in workers:
            if isinstance(worker, str):
                addresses.extend(parse_worker_addresses(worker))
            else:
                host, port = worker
                addresses.append((str(host), int(port)))
        return addresses

    @staticmethod
    def _resolve_cache(
        cache_sync: Optional[Union[str, "os.PathLike[str]", "CapacityCache"]]
    ) -> Optional["CapacityCache"]:
        if cache_sync is None:
            return None
        if isinstance(cache_sync, (str, os.PathLike)):
            from repro.runtime.capacity import CapacityCache

            return CapacityCache(cache_sync)
        return cache_sync

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    def _connect(self, index: int, address: Tuple[str, int]) -> Optional[_WorkerLink]:
        try:
            sock = socket.create_connection(address, timeout=self._connect_timeout_s)
        except OSError:
            with self._lock:
                self._stats["connect_failures"] += 1
            return None
        try:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "heartbeat_interval_s": self._heartbeat_interval_s,
                },
                self._io_timeout_s,
            )
            reader = _FrameReader(sock)
            welcome = reader.poll(self._io_timeout_s)
            if (
                welcome is None
                or welcome.get("type") != "welcome"
                or welcome.get("protocol") != PROTOCOL_VERSION
            ):
                raise ProtocolError(f"bad welcome: {welcome!r}")
        except (OSError, ProtocolError, pickle.UnpicklingError, EOFError):
            with self._lock:
                self._stats["connect_failures"] += 1
            try:
                sock.close()
            except OSError:
                pass
            return None
        return _WorkerLink(
            index=index,
            address=address,
            sock=sock,
            reader=reader,
            worker_id=str(welcome.get("worker_id", f"{address[0]}:{address[1]}")),
            slots=max(1, int(welcome.get("slots", 1))),
        )

    @property
    def live_workers(self) -> int:
        """Links currently believed healthy (connected, heartbeating)."""
        with self._lock:
            return sum(1 for link in self._links if link.alive and not link.suspect)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def _serve_link(self, link: _WorkerLink) -> None:
        """Receiver thread: drain one link, enforcing heartbeat liveness."""
        try:
            while True:
                with self._lock:
                    if self._closed or not link.alive:
                        return
                try:
                    message = link.reader.poll(_POLL_INTERVAL_S)
                except (ConnectionClosed, ProtocolError, OSError) as error:
                    self._link_lost(link, error)
                    return
                now = time.monotonic()
                if message is None:
                    overdue = False
                    with self._lock:
                        overdue = (
                            link.alive
                            and not link.suspect
                            and now - link.last_seen > self._liveness_timeout_s
                        )
                    if overdue:
                        self._mark_suspect(link)
                    continue
                link.last_seen = now
                recovered = False
                with self._lock:
                    if link.suspect:
                        link.suspect = False
                        self._stats["suspect_recoveries"] += 1
                        recovered = True
                if recovered:
                    self._pump()
                kind = message.get("type")
                if kind == "result":
                    self._handle_result(link, message)
                # heartbeats only refresh last_seen; unknown types are ignored
        except BaseException as error:  # a receiver must never die silently
            self._link_lost(link, error)

    def _handle_result(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        task_id = int(message.get("task_id", -1))
        with self._lock:
            link.inflight.pop(task_id, None)
            record = self._records.get(task_id)
        entries = message.get("cache_entries") or ()
        if entries:
            self._apply_cache_entries(entries)
        if record is None:
            with self._lock:
                self._stats["duplicate_results"] += 1
        elif bool(message.get("ok")):
            if not self._settle_value(record, message.get("value")):
                with self._lock:
                    self._stats["duplicate_results"] += 1
        else:
            error = message.get("error")
            if not isinstance(error, BaseException):
                error = RemoteTaskError(f"malformed error from worker: {error!r}")
            if not self._settle_error(record, error):
                with self._lock:
                    self._stats["duplicate_results"] += 1
        self._pump()

    def _apply_cache_entries(self, entries: Iterable[Any]) -> None:
        if self._cache is None:
            return
        from repro.runtime.capacity import apply_synced_entries

        merged = apply_synced_entries(self._cache, entries)
        with self._lock:
            self._stats["cache_entries_applied"] += merged["applied"]
            self._stats["cache_conflicts"] += merged["conflicts"]
            self._stats["cache_rejected"] += merged["rejected"]

    # ------------------------------------------------------------------ #
    # Failure handling
    # ------------------------------------------------------------------ #

    def _mark_suspect(self, link: _WorkerLink) -> None:
        """Heartbeat overdue: reassign the link's leases, keep listening."""
        with self._lock:
            if self._closed or not link.alive or link.suspect:
                return
            link.suspect = True
            self._stats["lease_timeouts"] += 1
            stranded = list(link.inflight.values())
            link.inflight.clear()
        self._reassign(stranded)
        self._pump()

    def _link_lost(self, link: _WorkerLink, error: Optional[BaseException]) -> None:
        """The link is unusable (EOF, reset, garbage): declare the host dead."""
        with self._lock:
            if not link.alive:
                return
            link.alive = False
            closed = self._closed
            if not closed:
                # A link torn down by close() is a shutdown, not a failure.
                self._stats["worker_failures"] += 1
                self._stats["worker_crashes"] += 1
            stranded = list(link.inflight.values())
            link.inflight.clear()
        try:
            link.sock.close()
        except OSError:
            pass
        if closed:
            return
        self._reassign(stranded)
        self._pump()

    def _reassign(self, records: List[_RemoteRecord]) -> None:
        """Move stranded leases to another worker, budget and backoff applied."""
        for record in records:
            record.attempts += 1
            with self._lock:
                quarantine = record.attempts > self._max_task_retries
                if quarantine:
                    self._stats["quarantined"] += 1
                else:
                    self._stats["lease_reassignments"] += 1
                    self._stats["retries"] += 1
            if quarantine:
                self._settle_error(
                    record,
                    WorkerCrashError(
                        f"task {record.item!r} lost its worker host "
                        f"{record.attempts} times; quarantined"
                    ),
                )
                continue
            delay = self._backoff_delay(record.seq, record.attempts)
            if delay > 0:
                self._sleeper(delay)
            self._place(record)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _try_dispatch(self, record: _RemoteRecord) -> str:
        """Try to put ``record`` on a live worker: 'sent', 'busy', or 'dead'.

        'sent' also covers a send that failed en route — the failure path
        (link loss or an unpicklable task) re-routes or settles the record
        itself, so the caller never sees it again either way.
        """
        with self._lock:
            live = [link for link in self._links if link.alive and not link.suspect]
            if not live:
                return "dead"
            open_links = [link for link in live if len(link.inflight) < link.slots]
            if not open_links:
                return "busy"
            link = min(open_links, key=lambda lnk: (len(lnk.inflight), lnk.index))
            link.inflight[record.seq] = record
        self._send_task(link, record)
        return "sent"

    def _send_task(self, link: _WorkerLink, record: _RemoteRecord) -> None:
        if record.context is not None:
            spec: Tuple[Any, ...] = (
                "context",
                record.context.pack(record.fn, record.item),
            )
        else:
            spec = ("plain", record.fn, record.item)
        try:
            payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            with self._lock:
                link.inflight.pop(record.seq, None)
            self._settle_error(record, error)  # a task bug, not a link failure
            return
        message = {"type": "task", "task_id": record.seq, "spec": payload}
        try:
            with link.send_lock:
                send_frame(link.sock, message, self._io_timeout_s)
        except OSError as error:
            self._link_lost(link, error)
            with self._lock:
                orphan = link.inflight.pop(record.seq, None)
            if orphan is not None:
                # _link_lost raced past this record (or was a no-op because
                # another thread already declared the link dead): it is
                # still ours to recover.
                self._reassign([record])

    def _place(self, record: _RemoteRecord) -> None:
        outcome = self._try_dispatch(record)
        if outcome == "busy":
            with self._lock:
                self._queue.append(record)
        elif outcome == "dead":
            self._run_local(record)

    def _pump(self) -> None:
        """Drain queued tasks into whatever capacity exists right now."""
        while True:
            with self._lock:
                if not self._queue:
                    return
                record = self._queue.popleft()
            outcome = self._try_dispatch(record)
            if outcome == "busy":
                with self._lock:
                    self._queue.appendleft(record)
                return
            if outcome == "dead":
                self._run_local(record)

    def _run_local(self, record: _RemoteRecord) -> None:
        """Zero live workers: run inline so the sweep completes, not hangs."""
        with self._lock:
            self._stats["local_fallbacks"] += 1
        try:
            if record.context is not None:
                value = record.fn(record.context.build(), record.item)
            else:
                value = record.fn(record.item)
        except BaseException as error:  # delivered at .result(), like serial
            self._settle_error(record, error)
        else:
            self._settle_value(record, value)

    # ------------------------------------------------------------------ #
    # Settling (idempotent: first completion wins, duplicates discard)
    # ------------------------------------------------------------------ #

    def _settle_value(self, record: _RemoteRecord, value: Any) -> bool:
        with self._lock:
            if record.settled:
                return False
            record.settled = True
            self._stats["completed"] += 1
        record.future._resolve(value)
        return True

    def _settle_error(self, record: _RemoteRecord, error: BaseException) -> bool:
        with self._lock:
            if record.settled:
                return False
            record.settled = True
        record.future._reject(error)
        return True

    # ------------------------------------------------------------------ #
    # WorkerPool surface
    # ------------------------------------------------------------------ #

    def submit(
        self,
        fn: Callable[..., Any],
        item: Any,
        context: Optional[TaskContext] = None,
    ) -> Future:
        """Dispatch one task to the fleet and return its :class:`Future`.

        Identical contract to :meth:`WorkerPool.submit`; the task runs on
        the least-loaded live worker with a free slot, queues when the
        fleet is saturated, and runs inline when no live worker exists.
        """
        if self._closed:
            raise RuntimeError("RemoteWorkerPool is closed")
        if in_worker():
            # Nested inside a pool worker: forking (and remote dispatch
            # from a worker) is forbidden; the base inline path applies.
            return super().submit(fn, item, context=context)
        future = Future(item)
        with self._lock:
            self._stats["submitted"] += 1
            seq = self._stats["submitted"]
            record = _RemoteRecord(future, fn, item, context, seq=seq)
            self._records[seq] = record
        self._place(record)
        return future

    @property
    def parallelism(self) -> int:
        """Effective width: never 1 outside a worker, so batch helpers like
        :meth:`WorkerPool.map` always route through :meth:`submit` — even a
        one-slot or currently-dead fleet must get remote dispatch, lease
        recovery, and the local-fallback accounting, not a silent inline
        loop."""
        return 1 if in_worker() else max(2, self._max_workers)

    @property
    def forked(self) -> bool:
        """Whether remote resources are held (any worker link connected)."""
        return bool(self._links) or super().forked

    def close(self) -> None:
        """Shut the fleet down: send shutdowns, close links, settle strays."""
        with self._lock:
            already = self._closed
            self._closed = True
            links = list(self._links)
            self._queue.clear()
            unsettled = [
                record for record in self._records.values() if not record.settled
            ]
        if already:
            return
        for link in links:
            try:
                with link.send_lock:
                    send_frame(
                        link.sock,
                        {"type": "shutdown"},
                        min(1.0, self._io_timeout_s),
                    )
            except OSError:
                pass  # the worker is gone; nothing left to shut down
            try:
                link.sock.close()
            except OSError:
                pass
        for link in links:
            if link.thread is not None:
                link.thread.join(timeout=2.0)
        for record in unsettled:
            # A consumer that closes with results unclaimed gets a loud
            # failure at .result() instead of a future that never resolves.
            self._settle_error(
                record,
                RuntimeError(
                    f"RemoteWorkerPool closed with task {record.item!r} unresolved"
                ),
            )
        super().close()

    def __repr__(self) -> str:
        return (
            f"RemoteWorkerPool(workers={len(self._links)}, "
            f"slots={self._max_workers}, live={self.live_workers})"
        )


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.runtime.remote worker`` — run one worker host."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.remote",
        description="Remote execution endpoints for distributed sweeps.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    worker = commands.add_parser(
        "worker", help="serve tasks for a RemoteWorkerPool coordinator"
    )
    worker.add_argument("--host", default="127.0.0.1", help="bind address")
    worker.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral, announced)"
    )
    worker.add_argument(
        "--slots", type=int, default=1, help="concurrent tasks this host runs"
    )
    worker.add_argument(
        "--once", action="store_true", help="exit after the first coordinator session"
    )
    worker.add_argument(
        "--io-timeout-s",
        type=float,
        default=DEFAULT_IO_TIMEOUT_S,
        help="timeout applied to every blocking socket operation",
    )
    args = parser.parse_args(argv)
    # Lets task code (and tests) detect it runs under a remote worker shell.
    os.environ["REPRO_REMOTE_WORKER"] = "1"

    def _announce(port: int) -> None:
        print(f"remote-worker listening {port}", flush=True)

    serve_worker(
        host=args.host,
        port=args.port,
        slots=args.slots,
        once=args.once,
        io_timeout_s=args.io_timeout_s,
        on_listening=_announce,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main(sys.argv[1:]))
