"""Tests for the futures layer of the worker pool (submit / as_completed).

The contract: ``submit`` returns a :class:`Future` that resolves inline on
serial pools (and inside workers) and asynchronously on parallel pools;
``as_completed`` yields futures in completion order; ``map`` is
submit-and-gather over the same machinery; workers cache a bounded number of
built task contexts.
"""

import time

import pytest

from repro.runtime.pool import (
    Future,
    TaskContext,
    WorkerPool,
    _WORKER_CONTEXT_SLOTS,
    _WORKER_CONTEXTS,
    _run_contextual_task,
    as_completed,
    pool_forks,
)


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def _slow_identity(value):
    time.sleep(0.01 * value)
    return value


def _add_state_item(state, item):
    return state + item


class TestSubmitInline:
    def test_serial_pool_resolves_at_submit(self):
        pool = WorkerPool(1)
        before = pool_forks()
        future = pool.submit(_square, 6)
        assert future.done()
        assert future.result() == 36
        assert future.item == 6
        assert pool_forks() == before  # inline: nothing forked

    def test_inline_exception_delivered_at_result(self):
        future = WorkerPool(1).submit(_boom, 3)
        assert future.done()
        with pytest.raises(ValueError, match="boom 3"):
            future.result()

    def test_inline_context_built_once_across_submits(self):
        calls = []

        def builder(payload):
            calls.append(payload)
            return payload * 10

        context = TaskContext(builder, 2)
        pool = WorkerPool(1)
        first = pool.submit(_add_state_item, 1, context=context)
        second = pool.submit(_add_state_item, 2, context=context)
        assert (first.result(), second.result()) == (21, 22)
        assert calls == [2]


class TestSubmitParallel:
    def test_parallel_results_and_completion_order(self):
        # Slow item 3 must complete after fast item 0 even though it was
        # submitted first: as_completed yields in completion order.
        with WorkerPool(2) as pool:
            slow = pool.submit(_slow_identity, 3)
            fast = pool.submit(_slow_identity, 0)
            completed = [future.result() for future in as_completed([slow, fast])]
        assert sorted(completed) == [0, 3]
        assert completed[0] == 0

    def test_parallel_exception_delivered_at_result(self):
        with WorkerPool(2) as pool:
            good = pool.submit(_square, 4)
            bad = pool.submit(_boom, 7)
            assert good.result() == 16
            with pytest.raises(ValueError, match="boom 7"):
                bad.result()

    def test_as_completed_yields_already_done_first(self):
        done = Future()
        done._resolve("early")
        with WorkerPool(2) as pool:
            pending = pool.submit(_slow_identity, 1)
            order = list(as_completed([pending, done]))
        assert order[0] is done
        assert order[1] is pending

    def test_map_is_submit_and_gather(self):
        items = list(range(12))
        with WorkerPool(2) as pool:
            assert pool.map(_square, items) == [_square(i) for i in items]


#: Build log for the LRU test (builders must be picklable module-level
#: callables; the test drives the worker entry point in-process).
_BUILT = []


def _logging_builder(payload):
    _BUILT.append(payload)
    return payload


def _context_task(state, item):
    return (state, item)


class TestWorkerContextCache:
    def test_lru_keeps_bounded_contexts(self):
        # Drive the worker entry point directly: each new token builds once,
        # repeats hit the cache, and the LRU evicts beyond its slot bound.
        _WORKER_CONTEXTS.clear()
        _BUILT.clear()
        count = _WORKER_CONTEXT_SLOTS + 2
        contexts = [TaskContext(_logging_builder, index) for index in range(count)]
        for index, context in enumerate(contexts):
            assert _run_contextual_task(context.pack(_context_task, index)) == (
                index,
                index,
            )
        assert _BUILT == list(range(count))
        assert len(_WORKER_CONTEXTS) == _WORKER_CONTEXT_SLOTS

        # The most recent contexts are cached: re-running them builds nothing.
        _BUILT.clear()
        for index in range(count - 1, 2, -1):
            _run_contextual_task(contexts[index].pack(_context_task, index))
        assert _BUILT == []
        # The evicted earliest context rebuilds (and evicts the LRU entry).
        _run_contextual_task(contexts[0].pack(_context_task, 0))
        assert _BUILT == [0]
        _WORKER_CONTEXTS.clear()
