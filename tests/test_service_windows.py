"""Tests for the service's event-time window manager."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.query import Query
from repro.service.windows import Window, WindowManager

SETTINGS = settings(max_examples=60, deadline=None)


def make_queries(times):
    return [Query(i, t, 16) for i, t in enumerate(times)]


class TestWindowAssignment:
    def test_window_index_and_bounds(self):
        manager = WindowManager(window_s=10.0)
        assert manager.window_index(0.0) == 0
        assert manager.window_index(9.999) == 0
        assert manager.window_index(10.0) == 1
        assert manager.window_bounds(2) == (20.0, 30.0)

    def test_start_offset_shifts_windows(self):
        manager = WindowManager(window_s=5.0, start_s=100.0)
        assert manager.window_index(101.0) == 0
        assert manager.window_bounds(1) == (105.0, 110.0)
        with pytest.raises(ValueError):
            manager.window_index(99.0)

    def test_rounded_boundary_event_joins_the_window_it_opens(self):
        # 77.0 // 1.1 is 69, but 70 * 1.1 rounds to 77.0: the event belongs
        # to window 70, so a repeat of it is not late.
        manager = WindowManager(window_s=1.1)
        assert manager.window_index(77.0) == 70
        closed = manager.extend([Query(0, 77.0, 16), Query(1, 77.0, 16)])
        closed += manager.flush()
        assert manager.late_events == 0
        assert [(w.index, len(w.queries)) for w in closed] == [(70, 2)]
        assert closed[0].start_s <= 77.0 < closed[0].end_s

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WindowManager(window_s=0.0)
        with pytest.raises(ValueError):
            WindowManager(window_s=1.0, allowed_lateness_s=-0.1)

    def test_in_order_stream_closes_windows_on_boundary_crossing(self):
        manager = WindowManager(window_s=10.0)
        assert manager.add(Query(0, 1.0, 16)) == []
        assert manager.add(Query(1, 9.0, 16)) == []
        closed = manager.add(Query(2, 10.0, 16))
        assert [w.index for w in closed] == [0]
        assert [q.query_id for q in closed[0].queries] == [0, 1]
        assert closed[0].mean_rate_qps == pytest.approx(0.2)

    def test_flush_closes_remaining_windows_in_order(self):
        manager = WindowManager(window_s=5.0, allowed_lateness_s=100.0)
        # The generous watermark keeps every window open until flush.
        assert manager.extend(make_queries([1.0, 7.0, 13.0])) == []
        flushed = manager.flush()
        assert [w.index for w in flushed] == [0, 1, 2]
        assert manager.open_windows == []

    def test_gap_windows_never_materialise(self):
        manager = WindowManager(window_s=1.0)
        closed = manager.extend(make_queries([0.5, 10.5]))
        assert [w.index for w in closed] == [0]  # windows 1..9 had no events


class TestLatenessPolicy:
    def test_strict_watermark_drops_late_event(self):
        manager = WindowManager(window_s=10.0)
        manager.extend(make_queries([1.0, 12.0]))  # window 0 closed
        assert manager.add(Query(9, 2.0, 16)) == []
        assert manager.late_events == 1
        assert manager.accepted_events == 2

    def test_allowed_lateness_holds_window_open(self):
        manager = WindowManager(window_s=10.0, allowed_lateness_s=5.0)
        # Event at 12 leaves the watermark at 7: window 0 stays open and
        # the out-of-order event at 2.0 still lands in its true window.
        assert manager.extend(make_queries([1.0, 12.0])) == []
        assert manager.add(Query(2, 2.0, 16)) == []
        closed = manager.add(Query(3, 16.0, 16))  # watermark 11 passes 10
        assert [w.index for w in closed] == [0]
        assert sorted(q.query_id for q in closed[0].queries) == [0, 2]
        assert manager.late_events == 0

    def test_event_into_skipped_window_behind_watermark_still_accepted(self):
        manager = WindowManager(window_s=10.0)
        # First event opens window 2 only; windows 0/1 never existed, so an
        # event for window 0 is not late — it closes immediately instead.
        assert manager.add(Query(0, 25.0, 16)) == []
        closed = manager.add(Query(1, 5.0, 16))
        assert [w.index for w in closed] == [0]
        # ...but once something at or below that index has been emitted,
        # the region is sealed.
        assert manager.add(Query(2, 6.0, 16)) == []
        assert manager.late_events == 1


class TestWindowingProperties:
    @SETTINGS
    @given(
        times=st.lists(
            st.floats(0.0, 500.0, allow_nan=False, width=32), min_size=1, max_size=80
        ),
        window_s=st.floats(0.5, 60.0, allow_nan=False),
    )
    def test_every_event_lands_in_its_event_time_window(self, times, window_s):
        manager = WindowManager(window_s=window_s, allowed_lateness_s=1e9)
        queries = make_queries(sorted(times))
        closed = manager.extend(queries) + manager.flush()
        for window in closed:
            assert (window.start_s, window.end_s) == manager.window_bounds(
                window.index
            )
            for query in window.queries:
                assert window.index == manager.window_index(query.arrival_time)
                assert window.start_s <= query.arrival_time < window.end_s

    @SETTINGS
    @given(
        times=st.lists(
            st.floats(0.0, 300.0, allow_nan=False, width=32), min_size=1, max_size=80
        ),
        window_s=st.floats(0.5, 30.0, allow_nan=False),
        lateness_s=st.floats(0.0, 400.0, allow_nan=False),
    )
    def test_conservation_and_ordering(self, times, window_s, lateness_s):
        """No event is lost or duplicated, and windows close in index order."""
        manager = WindowManager(window_s=window_s, allowed_lateness_s=lateness_s)
        queries = make_queries(times)
        closed = manager.extend(queries) + manager.flush()
        emitted = [q.query_id for w in closed for q in w.queries]
        assert len(emitted) == len(set(emitted))  # never duplicated
        assert len(emitted) + manager.late_events == len(queries)
        assert manager.accepted_events == len(emitted)
        indices = [w.index for w in closed]
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))

    @SETTINGS
    @given(
        times=st.lists(
            st.floats(0.0, 300.0, allow_nan=False, width=32), min_size=1, max_size=80
        ),
        window_s=st.floats(0.5, 30.0, allow_nan=False),
    )
    def test_in_order_streams_never_drop_events(self, times, window_s):
        manager = WindowManager(window_s=window_s)  # strictest watermark
        closed = manager.extend(make_queries(sorted(times))) + manager.flush()
        assert sum(len(w.queries) for w in closed) == len(times)
        assert manager.late_events == 0

    @SETTINGS
    @given(
        times=st.lists(
            st.floats(0.0, 100.0, allow_nan=False, width=32), min_size=2, max_size=60
        ),
        window_s=st.floats(0.5, 20.0, allow_nan=False),
    )
    def test_lateness_covering_disorder_drops_nothing(self, times, window_s):
        """With the watermark lagging by the stream's true disorder, the
        out-of-order stream emits exactly the in-order stream's windows."""
        disorder = max(
            (max(times[: i + 1]) - t for i, t in enumerate(times)), default=0.0
        )
        manager = WindowManager(window_s=window_s, allowed_lateness_s=disorder)
        closed = manager.extend(make_queries(times)) + manager.flush()
        assert manager.late_events == 0
        ordered = WindowManager(window_s=window_s)
        ordered_closed = (
            ordered.extend(make_queries(sorted(times))) + ordered.flush()
        )
        got = {w.index: sorted(q.arrival_time for q in w.queries) for w in closed}
        want = {
            w.index: sorted(q.arrival_time for q in w.queries)
            for w in ordered_closed
        }
        assert got == want


class ScanEveryEvent:
    """Reference windowing: after every accepted event, scan all open
    windows for ones the watermark has passed."""

    def __init__(self, window_s, allowed_lateness_s):
        self.index = WindowManager(window_s).window_index
        self.bounds = WindowManager(window_s).window_bounds
        self.lateness_s = allowed_lateness_s
        self.open = {}
        self.max_event_time = -math.inf
        self.closed_through = -1
        self.late = 0

    def add(self, query):
        index = self.index(query.arrival_time)
        if index <= self.closed_through:
            self.late += 1
            return []
        self.open.setdefault(index, []).append(query)
        self.max_event_time = max(self.max_event_time, query.arrival_time)
        watermark = self.max_event_time - self.lateness_s
        return self._emit(i for i in self.open if self.bounds(i)[1] <= watermark)

    def flush(self):
        return self._emit(self.open)

    def fast_forward(self, closed_through, max_event_time_s):
        self.closed_through = max(self.closed_through, closed_through)
        self.max_event_time = max(self.max_event_time, max_event_time_s)

    def _emit(self, indices):
        closed = [
            (index, *self.bounds(index), tuple(self.open.pop(index)))
            for index in sorted(indices)
        ]
        if closed:
            self.closed_through = max(self.closed_through, closed[-1][0])
        return closed


def as_tuples(windows):
    return [(w.index, w.start_s, w.end_s, w.queries) for w in windows]


class TestCloseCheckMatchesFullScan:
    """The O(1) close check emits exactly what a per-event scan emits."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.floats(0.0, 200.0, allow_nan=False, width=32),
                st.just("flush"),
            ),
            max_size=80,
        ),
        window_s=st.floats(0.5, 30.0, allow_nan=False),
        lateness_s=st.one_of(st.just(0.0), st.floats(0.0, 60.0, allow_nan=False)),
        resume=st.one_of(
            st.none(),
            st.tuples(st.integers(-1, 6), st.floats(0.0, 200.0, allow_nan=False)),
        ),
    )
    def test_out_of_order_stream_with_flushes(self, ops, window_s, lateness_s, resume):
        manager = WindowManager(window_s=window_s, allowed_lateness_s=lateness_s)
        reference = ScanEveryEvent(window_s, lateness_s)
        scans = []
        close_ripe = manager._close_ripe
        manager._close_ripe = lambda: scans.append(1) or close_ripe()
        if resume is not None:
            manager.fast_forward(*resume)
            reference.fast_forward(*resume)
        for query_id, op in enumerate(ops):
            if op == "flush":
                got, want = manager.flush(), reference.flush()
            else:
                query = Query(query_id, op, 16)
                scans.clear()
                got, want = manager.add(query), reference.add(query)
                # The open windows are scanned only when one is due to close.
                assert len(scans) == bool(want)
            assert as_tuples(got) == want
            assert manager.open_windows == sorted(reference.open)
            assert manager.late_events == reference.late
        assert as_tuples(manager.flush()) == reference.flush()


class TestWindowDataclass:
    def test_window_is_immutable(self):
        window = Window(index=0, start_s=0.0, end_s=5.0, queries=(Query(0, 1.0, 8),))
        with pytest.raises(AttributeError):
            window.index = 1
        assert window.duration_s == 5.0


class TestAddIndexesInline:
    """``add`` computes the index itself; ``window_index`` is its reference."""

    @SETTINGS
    @given(
        times=st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=40),
        window_s=st.floats(1e-3, 60.0, allow_nan=False),
        start_s=st.floats(-100.0, 100.0, allow_nan=False),
    )
    def test_add_assigns_the_window_index_of_each_event(self, times, window_s, start_s):
        manager = WindowManager(window_s=window_s, allowed_lateness_s=1e9, start_s=start_s)
        accepted = [query for query in make_queries(times) if query.arrival_time >= start_s]
        closed = manager.extend(accepted) + manager.flush()
        assert sum(len(window.queries) for window in closed) == len(accepted)
        for window in closed:
            for query in window.queries:
                assert window.index == manager.window_index(query.arrival_time)

    def test_event_before_the_stream_start_raises_and_changes_nothing(self):
        manager = WindowManager(window_s=5.0, start_s=100.0)
        manager.add(Query(0, 101.0, 8))
        with pytest.raises(ValueError, match="precedes the stream start"):
            manager.add(Query(1, 99.5, 8))
        assert (manager.accepted_events, manager.late_events) == (1, 0)
        assert manager.watermark_s == 101.0
        assert [len(window.queries) for window in manager.flush()] == [1]
