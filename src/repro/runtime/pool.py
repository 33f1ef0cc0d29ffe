"""One process pool per invocation: a lazily-forked, reusable worker pool.

Every parallel consumer in the repository — fleet capacity searches, the
experiment sweep runner, the figure drivers' replay fans — historically
forked its own ``multiprocessing.Pool`` and tore it down again, so a sweep
of capacity searches paid a pool fork per search and a pooled sweep point
that itself received a worker budget could oversubscribe the host.
:class:`WorkerPool` replaces those ad-hoc pools with one shared runtime
primitive:

* **lazy** — the underlying pool is forked on the first parallel ``map``,
  never at construction, so a serial run (or one whose batches are all
  single-item) costs nothing;
* **reusable** — the pool persists across ``map`` calls until ``close``;
  a sweep of capacity searches shares one set of workers end to end;
* **nesting-safe** — a worker never re-forks: ``map`` issued from inside a
  pool worker (detected via the worker marker and the daemon flag) runs
  inline, so accidental nested parallelism degrades to serial instead of
  oversubscribing;
* **self-healing** — a worker death (OOM kill, segfault, stray
  ``SIGKILL``) breaks the underlying executor; the pool notices, retires
  the broken executor, and resubmits every task the crash took down on a
  fresh one with a bounded exponential backoff.  A task that keeps killing
  its workers is *quarantined* — its future fails with
  :class:`WorkerCrashError` after ``max_task_retries`` resubmissions — so
  one poison task can never hang ``as_completed`` or starve its batch.
  Crash/retry/quarantine counts are visible in :attr:`WorkerPool.stats`;
* **context-managed** — ``with WorkerPool(8) as pool: ...`` bounds the
  worker lifetime; :func:`shared_pool` extends that to a whole CLI
  invocation, and :func:`pool_scope` is how library code picks up the
  invocation's pool without threading it through every signature.

Work is dispatched either as a blocking batch (:meth:`WorkerPool.map`) or
completion-driven: :meth:`WorkerPool.submit` returns a :class:`Future` and
:func:`as_completed` yields futures in the order their results land, so a
consumer can react to each result immediately — refill a bounded set of
in-flight tasks — instead of synchronising on batch boundaries.  ``map``
is submit-and-gather over the same machinery.

Per-task shared state (a simulator, a cluster) is expressed as a
:class:`TaskContext`: a builder plus its picklable payload, serialised once
and *built* once per worker (cached by token).  The serial path builds the
same context once locally, keeping the two paths decision-identical.

A serial pool resolves futures inline at submit time and never forks — the
cheapest way to see the submit/``as_completed`` surface end to end:

>>> with WorkerPool(max_workers=1) as pool:
...     futures = [pool.submit(abs, n) for n in (-2, 1, -3)]
...     [future.result() for future in futures]
...     pool.forked
[2, 1, 3]
False
>>> [f.result() for f in as_completed(futures)]  # already-done yield first
[2, 1, 3]

``pool_scope`` is how library code resolves "which pool should this run
on" — an explicit pool wins, ``jobs=1`` stays truly serial:

>>> with pool_scope(max_workers=1) as scoped:
...     scoped.max_workers
1
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.utils.rng import RngFactory

#: Set (in the child) by the pool initializer; belt to the daemon-flag braces.
_IN_WORKER = False

#: Pools actually forked by this process, cumulative.  Tests and the
#: one-pool-per-invocation guarantee read this through :func:`pool_forks`.
_FORK_COUNT = 0

#: Worker-side LRU of built task contexts, keyed by token.  A context backs
#: every task of a batch (a replay fan's points), so a worker builds it
#: once; the bound keeps long-lived workers from accumulating simulators
#: when thousands of distinct contexts (one per capacity-search task)
#: stream through over a process's life.
_WORKER_CONTEXT_SLOTS = 16
_WORKER_CONTEXTS: "OrderedDict[Tuple[int, int], Any]" = OrderedDict()


def _worker_initializer() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    if os.environ.get("REPRO_REMOTE_WORKER"):
        # Children of a remote worker shell must not outlive it: the shell
        # can be SIGKILL'd (a host failure in the distributed tests), which
        # skips every cleanup path, and an orphaned child would then block
        # on the executor's work queue forever.  PR_SET_PDEATHSIG is
        # cleared on fork, so each child arms it for itself.
        try:
            import ctypes

            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
        except (OSError, AttributeError, TypeError):
            pass  # non-Linux: orphans are reaped by the harness instead


def in_worker() -> bool:
    """True inside a pool worker process (where forking again is forbidden)."""
    return _IN_WORKER or multiprocessing.current_process().daemon


def pool_forks() -> int:
    """Number of process pools this process has forked so far."""
    return _FORK_COUNT


class TaskContext:
    """Shared setup for a batch of pool tasks, built once per worker.

    ``builder(payload)`` must be a module-level callable with a picklable
    payload; its return value is handed to the task function as the first
    argument.  The same :class:`TaskContext` instance can back many ``map``
    calls — workers cache the built value by the context's token, and the
    serial path caches it locally — so e.g. a figure-13 replay fan builds
    its cluster once per worker no matter how many (batch, policy) points
    it replays.

    Because a ``multiprocessing.Pool`` cannot address individual workers,
    every task tuple carries the frozen payload bytes; serialisation cost is
    paid once (the bytes are reused) but pipe bandwidth is per item.  That
    is the price of sharing one long-lived pool across arbitrary consumers
    instead of re-forking with per-search initargs — and it is small: a
    warmed fleet search's payload measures ~40–190 KiB, shipped once with
    its search task against a whole bisection of simulations.

    ``value`` optionally seeds the *local* cache with an already-built
    object (e.g. the cluster the caller constructed anyway), which the
    serial path then reuses instead of building a duplicate.
    """

    _tokens = itertools.count()

    def __init__(
        self,
        builder: Callable[[Any], Any],
        payload: Any,
        value: Any = None,
    ) -> None:
        self._builder = builder
        self._payload = payload
        self._value = value
        self._built = value is not None
        # The (builder, payload) pair is pickled once and the bytes reused in
        # every task tuple, so a heavy payload (engines with dense latency
        # tables) costs one serialisation per context, not one per item.
        self._frozen: Optional[bytes] = None
        # Unique per (process, context); workers key their cache on it.
        self.token: Tuple[int, int] = (os.getpid(), next(TaskContext._tokens))

    def build(self) -> Any:
        """The built context value, constructing it on first use."""
        if not self._built:
            self._value = self._builder(self._payload)
            self._built = True
        return self._value

    def pack(
        self, fn: Callable[[Any, Any], Any], item: Any
    ) -> Tuple[Tuple[int, int], bytes, Callable[[Any, Any], Any], Any]:
        """The picklable task tuple shipped to workers for one ``item``."""
        if self._frozen is None:
            self._frozen = pickle.dumps(
                (self._builder, self._payload), protocol=pickle.HIGHEST_PROTOCOL
            )
        return (self.token, self._frozen, fn, item)


def _run_contextual_task(
    task: Tuple[Tuple[int, int], bytes, Callable[[Any, Any], Any], Any]
) -> Any:
    """Worker entry: build/reuse the task's context, then run it on the item."""
    token, frozen, fn, item = task
    cache = _WORKER_CONTEXTS
    if token in cache:
        cache.move_to_end(token)
        value = cache[token]
    else:
        builder, payload = pickle.loads(frozen)
        value = builder(payload)
        cache[token] = value
        if len(cache) > _WORKER_CONTEXT_SLOTS:
            cache.popitem(last=False)
    return fn(value, item)


# --------------------------------------------------------------------------- #
# Futures
# --------------------------------------------------------------------------- #

#: One condition serves every Future: completions are rare (one per simulated
#: workload) and the shared condition lets :func:`as_completed` wait on any
#: subset of futures without per-future plumbing.  Pool callbacks notify it
#: from the result-handler thread.
_COMPLETION = threading.Condition()


class Future:
    """Result placeholder for one task submitted to a :class:`WorkerPool`.

    Futures resolve either inline at submit time (serial pools, nested
    submits inside a worker) or from the pool's result-handler thread when
    the worker finishes.  A submitted process task cannot be revoked, so
    every future resolves.
    """

    __slots__ = ("item", "_done", "_value", "_error", "_callbacks")

    def __init__(self, item: Any = None) -> None:
        self.item = item
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[[Future], None]] = []

    def done(self) -> bool:
        """True once a result (or error) has landed."""
        return self._done

    def add_done_callback(self, fn: Callable[[Future], None]) -> None:
        """Call ``fn(future)`` once this future is done (at once if it is).

        ``fn`` runs on the thread that settles the future (often the pool's
        result handler), so it must be quick and must not block.
        """
        with _COMPLETION:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    def _settle(self, value: Any, error: Optional[BaseException]) -> None:
        with _COMPLETION:
            self._value = value
            self._error = error
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
            _COMPLETION.notify_all()
        for callback in callbacks:
            callback(self)

    def _resolve(self, value: Any) -> None:
        self._settle(value, None)

    def _reject(self, error: BaseException) -> None:
        self._settle(None, error)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the task finishes; return its value or raise its error."""
        if not self._done:
            with _COMPLETION:
                _COMPLETION.wait_for(lambda: self._done, timeout)
        if not self._done:
            raise TimeoutError(f"task did not complete within {timeout} s")
        if self._error is not None:
            raise self._error
        return self._value

    def __repr__(self) -> str:
        state = "done" if self._done else "pending"
        return f"Future(item={self.item!r}, {state})"


def as_completed(futures: Iterable[Future]) -> Iterator[Future]:
    """Yield ``futures`` in completion order (already-done ones first).

    The completion-driven analogue of gathering a ``map``: consumers react
    to each result the moment it lands — caching a sweep point, or
    submitting the next capacity search into the freed slot — while the
    remaining tasks keep running.
    """
    pending = list(futures)
    while pending:
        ready = [future for future in pending if future._done]
        if not ready:
            with _COMPLETION:
                _COMPLETION.wait_for(
                    lambda: any(future._done for future in pending)
                )
            continue
        for future in ready:
            pending.remove(future)
            yield future


class WorkerCrashError(RuntimeError):
    """A task was abandoned because it kept crashing its worker process.

    Raised at ``Future.result()`` for a task that exhausted its crash-retry
    budget (``max_task_retries``): the pool treats it as *poison* and
    quarantines it rather than burning workers on it forever.  Tasks that
    merely *raise* are never wrapped in this — ordinary exceptions pass
    through untouched and unretried.
    """


class _TaskRecord:
    """Dispatch state for one submitted task, carried across crash retries."""

    __slots__ = (
        "future", "fn", "item", "context", "attempts", "generation", "seq"
    )

    def __init__(
        self, future: Future, fn: Callable[..., Any], item: Any,
        context: Optional[TaskContext], seq: int = 0,
    ) -> None:
        self.future = future
        self.fn = fn
        self.item = item
        self.context = context
        self.attempts = 0  # crash-triggered resubmissions so far
        self.generation = 0  # executor generation this dispatch targeted
        self.seq = seq  # submission ordinal; keys the backoff jitter stream


#: Ceiling on the crash-retry backoff so a run never stalls half a second
#: more than it must between executor generations.
_MAX_BACKOFF_S = 0.5


class WorkerPool:
    """A lazily-forked, reusable, nesting-safe, self-healing process pool.

    Parameters
    ----------
    max_workers:
        Worker processes to fork when parallel work first arrives; ``None``
        means one per host core.  A pool of one never forks — every ``map``
        runs inline — which is also the behaviour inside a pool worker
        regardless of ``max_workers``.
    max_task_retries:
        How many times one task may be resubmitted after a worker crash
        takes it down before the pool quarantines it (fails its future with
        :class:`WorkerCrashError`).  Crashes are *process deaths* — a task
        that raises an ordinary exception is never retried.
    retry_backoff_s:
        Base of the exponential backoff between crash resubmissions
        (doubled per attempt, capped at half a second) — enough for a
        transient killer (an OOM spike) to clear without turning recovery
        into a stall.
    backoff_seed:
        Root seed of the jitter applied to each backoff delay.  Jitter is
        derived per ``(task, attempt)`` from an :class:`RngFactory` child
        stream — never from wall clock or the global RNG — so two runs with
        the same seed and submission order back off identically.
    sleeper:
        How the pool actually waits out a backoff delay; defaults to
        ``time.sleep``.  Tests inject a recorder here to assert the exact
        delay sequence without slowing the suite down.
    """

    #: True for executors whose workers live on other hosts.  Budget
    #: planners (``runtime.capacity._parallel_budget``) clamp parallel width
    #: to the local core count — correct for forked pools, wrong for a fleet
    #: of remote machines — and skip that clamp when this is set.
    spans_hosts: bool = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_task_retries: int = 3,
        retry_backoff_s: float = 0.05,
        backoff_seed: int = 0,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self._max_workers = max_workers or os.cpu_count() or 1
        self._max_task_retries = max_task_retries
        self._retry_backoff_s = retry_backoff_s
        self._backoff_rng = RngFactory(backoff_seed)
        self._sleeper: Callable[[float], None] = (
            time.sleep if sleeper is None else sleeper
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        # Guards executor lifecycle + stats: dispatches race with the
        # executor's callback thread (where crashes are detected).
        self._lock = threading.Lock()
        # Bumped every time an executor is retired (crash or close); stale
        # crash reports from an already-replaced generation are ignored so
        # one worker death is counted — and heals the pool — exactly once.
        self._generation = 0
        self._stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "worker_crashes": 0,
            "retries": 0,
            "quarantined": 0,
        }

    @property
    def max_workers(self) -> int:
        """Worker budget this pool forks on first parallel use."""
        return self._max_workers

    @property
    def parallelism(self) -> int:
        """Effective width: 1 inside a worker (nested maps run inline)."""
        return 1 if in_worker() else self._max_workers

    @property
    def forked(self) -> bool:
        """Whether the underlying process pool has actually been forked."""
        return self._executor is not None

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime counters: submitted / completed / worker_crashes /
        retries / quarantined.  ``worker_crashes`` counts executor
        generations lost, ``retries`` crash-triggered resubmissions, and
        ``quarantined`` tasks abandoned with :class:`WorkerCrashError`.
        """
        with self._lock:
            return dict(self._stats)

    # ------------------------------------------------------------------ #

    def _dispatch(self, record: _TaskRecord) -> None:
        """Submit (or resubmit) one task onto the live executor."""
        try:
            with self._lock:
                if self._executor is None:
                    global _FORK_COUNT
                    _FORK_COUNT += 1
                    self._executor = ProcessPoolExecutor(
                        max_workers=self._max_workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_worker_initializer,
                    )
                record.generation = self._generation
                if record.context is not None:
                    handle = self._executor.submit(
                        _run_contextual_task,
                        record.context.pack(record.fn, record.item),
                    )
                else:
                    handle = self._executor.submit(record.fn, record.item)
        except BrokenProcessPool:
            # The executor broke between a crash and its retirement; treat
            # this dispatch as crash contact so the budget stays bounded.
            self._crash_contact(record)
            return
        handle.add_done_callback(
            lambda done, record=record: self._task_done(record, done)
        )

    def _retire_broken(self, generation: int) -> None:
        """Drop the broken executor (once per generation); heal lazily."""
        with self._lock:
            if generation != self._generation or self._executor is None:
                return  # another task's crash report already retired it
            self._generation += 1
            self._stats["worker_crashes"] += 1
            executor, self._executor = self._executor, None
        # Outside the lock: reap what is reapable without waiting on it.
        executor.shutdown(wait=False, cancel_futures=True)

    def _backoff_delay(self, seq: int, attempt: int) -> float:
        """Deterministic jittered backoff before resubmission ``attempt``.

        Exponential in the attempt number, capped at ``_MAX_BACKOFF_S``, and
        jittered into ``[0.5, 1.0) × base`` by a seed-derived stream keyed on
        the task's submission ordinal — so concurrent victims of one crash
        spread out instead of thundering back in lockstep, yet the same run
        replayed with the same seed waits exactly the same delays.
        """
        if self._retry_backoff_s <= 0 or attempt <= 0:
            return 0.0
        base = min(self._retry_backoff_s * (2 ** (attempt - 1)), _MAX_BACKOFF_S)
        stream = self._backoff_rng.child(f"crash-backoff/{seq}/{attempt}")
        return base * (0.5 + 0.5 * float(stream.random()))

    def _crash_contact(self, record: _TaskRecord) -> None:
        """A worker crash took this task down: retry it or quarantine it."""
        self._retire_broken(record.generation)
        record.attempts += 1
        with self._lock:
            quarantine = record.attempts > self._max_task_retries
            self._stats["quarantined" if quarantine else "retries"] += 1
        if quarantine:
            record.future._reject(
                WorkerCrashError(
                    f"task {record.item!r} crashed its worker process "
                    f"{record.attempts} times; quarantined"
                )
            )
            return
        delay = self._backoff_delay(record.seq, record.attempts)
        if delay > 0:
            self._sleeper(delay)
        self._dispatch(record)

    def _task_done(self, record: _TaskRecord, handle: Any) -> None:
        """Executor callback: route one finished dispatch to its future."""
        try:
            value = handle.result()
        except (BrokenProcessPool, CancelledError):
            # The worker running (or queued to run) this task died.  Every
            # in-flight sibling lands here too — each is retried on the
            # replacement executor with its own budget.
            self._crash_contact(record)
            return
        except BaseException as error:  # the task raised: no retry
            record.future._reject(error)
            return
        with self._lock:
            self._stats["completed"] += 1
        record.future._resolve(value)

    def submit(
        self,
        fn: Callable[..., Any],
        item: Any,
        context: Optional[TaskContext] = None,
    ) -> Future:
        """Dispatch one task and return a :class:`Future` for its result.

        On a serial pool — or nested inside a pool worker, where forking is
        forbidden — the task runs inline *now* and the returned future is
        already resolved, so completion-driven consumers degrade to exact
        serial execution with no special-casing.  With a ``context``, ``fn``
        receives ``(context_value, item)``; without one, ``(item)``.

        A parallel task whose worker process *dies* (rather than raises) is
        transparently resubmitted up to ``max_task_retries`` times on a
        fresh executor; past that budget its future fails with
        :class:`WorkerCrashError` instead of hanging.
        """
        future = Future(item)
        with self._lock:
            self._stats["submitted"] += 1
            seq = self._stats["submitted"]
        if self.parallelism <= 1:
            try:
                if context is not None:
                    future._resolve(fn(context.build(), item))
                else:
                    future._resolve(fn(item))
            except BaseException as error:  # delivered at .result()
                future._reject(error)
            else:
                with self._lock:
                    self._stats["completed"] += 1
            return future
        self._dispatch(_TaskRecord(future, fn, item, context, seq=seq))
        return future

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        context: Optional[TaskContext] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item, forking the pool only when it pays.

        Submit-and-gather over :meth:`submit`: runs inline (deterministically,
        in order) when the pool is serial, the call is nested inside a
        worker, or the batch has at most one item.  With a ``context``,
        ``fn`` receives ``(context_value, item)``; without one it receives
        ``(item)`` — in both cases ``fn`` and the items must be picklable
        for the parallel path.
        """
        items = list(items)
        serial = self.parallelism <= 1 or len(items) <= 1
        if serial:
            if context is not None:
                value = context.build()
                return [fn(value, item) for item in items]
            return [fn(item) for item in items]
        futures = [self.submit(fn, item, context=context) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Tear the forked pool down (a later ``map`` would fork afresh).

        Blocks until in-flight tasks drain — consumers gather results
        before closing, so in practice this returns immediately.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is not None:
                self._generation += 1
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "forked" if self.forked else "lazy"
        return f"WorkerPool(max_workers={self._max_workers}, {state})"


# --------------------------------------------------------------------------- #
# Invocation-wide shared pool
# --------------------------------------------------------------------------- #

#: The invocation's shared pool, owned by the outermost :func:`shared_pool`.
_ACTIVE: Optional[WorkerPool] = None

#: Serial singleton yielded by :func:`pool_scope` when the caller asked for
#: one worker: it never forks, so ``jobs=1`` stays a true serial run even
#: when an invocation-wide pool is active.
_SERIAL_POOL = WorkerPool(max_workers=1)


def active_pool() -> Optional[WorkerPool]:
    """The invocation's shared pool, or None outside a :func:`shared_pool`."""
    return _ACTIVE


@contextmanager
def shared_pool(
    max_workers: Optional[int] = None, pool: Optional[WorkerPool] = None
) -> Iterator[WorkerPool]:
    """Own the invocation-wide shared pool for the duration of the block.

    Entry points (the experiments CLI, benchmark harnesses) wrap their whole
    run in this; every :func:`pool_scope` below then resolves to the same
    pool, so the invocation forks at most one pool no matter how many sweeps
    and capacity searches it performs.  Nested calls share the outer pool
    (the outer owner closes it); the pool itself still forks lazily, so a
    run whose work turns out serial never forks at all.

    An explicit ``pool`` installs a pre-built executor — e.g. a
    :class:`repro.runtime.remote.RemoteWorkerPool` dialled up by the CLI —
    as the invocation's shared pool; ownership transfers, so this context
    closes it on exit like a pool it forked itself.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        yield _ACTIVE
        return
    own = pool if pool is not None else WorkerPool(max_workers)
    _ACTIVE = own
    try:
        yield own
    finally:
        _ACTIVE = None
        own.close()


@contextmanager
def pool_scope(
    max_workers: Optional[int] = None, pool: Optional[WorkerPool] = None
) -> Iterator[WorkerPool]:
    """Resolve the pool a parallel consumer should run on.

    Preference order: an explicitly provided ``pool``; the serial singleton
    when the caller asked for at most one worker (``jobs=1`` must stay
    serial even under an active shared pool); the invocation's shared pool;
    else a private single-use :class:`WorkerPool` closed on exit.  Library
    code (capacity searches, sweep runners, replay fans) funnels every
    parallel branch through this, which is what makes "one pool per CLI
    invocation" a structural property rather than a convention.
    """
    if pool is not None:
        yield pool
        return
    if max_workers is not None and max_workers <= 1:
        yield _SERIAL_POOL
        return
    active = active_pool()
    if active is not None:
        yield active
        return
    with WorkerPool(max_workers) as own:
        yield own
