"""Event-time windowing for the digital-twin service.

Live query events arrive in roughly — but not exactly — timestamp order.
:class:`WindowManager` assigns each event to a fixed-duration window keyed on
its **event time** (the query's ``arrival_time``, not the wall-clock instant
the service happened to read it), and closes windows behind a watermark:

* the watermark trails the largest event time seen by ``allowed_lateness_s``,
  so mildly out-of-order events still land in their correct window;
* a window closes once the watermark passes its end; events for a window
  that has already closed are *late* — they are counted and dropped rather
  than silently perturbing finished simulations;
* :meth:`WindowManager.flush` closes every remaining open window (end of
  stream, or service shutdown).

Windows are emitted in index order, and every accepted event appears in
exactly one emitted window — the conservation property the twin's
incremental simulation relies on for bit-identity with a one-shot batch run.

>>> from repro.queries.query import Query
>>> manager = WindowManager(window_s=10.0)
>>> manager.add(Query(0, 3.0, 16))        # opens window [0, 10); nothing closes
[]
>>> closed = manager.add(Query(1, 12.5, 16))   # watermark passes 10.0
>>> [(w.index, w.start_s, w.end_s, len(w.queries)) for w in closed]
[(0, 0.0, 10.0, 1)]
>>> late = manager.add(Query(2, 1.0, 16))      # window 0 already closed
>>> (late, manager.late_events)
([], 1)
>>> [(w.index, len(w.queries)) for w in manager.flush()]
[(1, 1)]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.queries.query import Query
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class Window:
    """One closed event-time window and the queries that fell into it.

    ``queries`` preserves ingest order; consumers that need arrival order
    (the twin) sort themselves, so a mildly out-of-order stream still
    simulates identically to its sorted batch equivalent.
    """

    index: int
    start_s: float
    end_s: float
    queries: Tuple[Query, ...]

    @property
    def duration_s(self) -> float:
        """Width of the window in seconds."""
        return self.end_s - self.start_s

    @property
    def mean_rate_qps(self) -> float:
        """Average offered rate over the window."""
        return len(self.queries) / self.duration_s


class WindowManager:
    """Aggregates an event stream into fixed windows keyed on event time.

    Parameters
    ----------
    window_s:
        Window duration in seconds.  Window ``i`` spans
        ``[start_s + i * window_s, start_s + (i + 1) * window_s)``.
    allowed_lateness_s:
        How far the watermark trails the largest event time seen.  ``0``
        closes a window the moment any event lands past its end (the
        strictest policy, right for in-order streams); a positive value
        tolerates that much event-time disorder without dropping events.
    start_s:
        Event time at which window 0 begins.
    """

    def __init__(
        self,
        window_s: float,
        allowed_lateness_s: float = 0.0,
        start_s: float = 0.0,
    ) -> None:
        check_positive("window_s", window_s)
        check_non_negative("allowed_lateness_s", allowed_lateness_s)
        self._window_s = float(window_s)
        self._lateness_s = float(allowed_lateness_s)
        self._start_s = float(start_s)
        self._open: Dict[int, List[Query]] = {}
        self._max_event_time = -math.inf
        self._closed_through = -1  # highest window index already emitted
        # End of the earliest open window (window ends grow with the index):
        # until the watermark reaches it, no event can close anything.
        self._next_close_s = math.inf
        self._accepted = 0
        self._late = 0

    # ------------------------------------------------------------------ #

    @property
    def window_s(self) -> float:
        """Configured window duration."""
        return self._window_s

    @property
    def allowed_lateness_s(self) -> float:
        """Configured watermark lag."""
        return self._lateness_s

    @property
    def watermark_s(self) -> float:
        """Event time up to which the stream is considered complete."""
        return self._max_event_time - self._lateness_s

    @property
    def accepted_events(self) -> int:
        """Events assigned to a (current or future) window so far."""
        return self._accepted

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already closed."""
        return self._late

    @property
    def open_windows(self) -> List[int]:
        """Indices of windows holding events that have not closed yet."""
        return sorted(self._open)

    def window_index(self, event_time_s: float) -> int:
        """Index of the window an event at ``event_time_s`` belongs to."""
        if event_time_s < self._start_s:
            raise ValueError(
                f"event time {event_time_s} precedes the stream start "
                f"{self._start_s}"
            )
        return self._index(event_time_s)

    def window_bounds(self, index: int) -> Tuple[float, float]:
        """``(start_s, end_s)`` of window ``index``; it ends where the next starts."""
        start = self._start_s + index * self._window_s
        return start, self._start_s + (index + 1) * self._window_s

    def _index(self, time_s: float) -> int:
        # Floor division and the rounded bounds can disagree next to a
        # boundary (77.0 // 1.1 is 69, yet 70 * 1.1 is 77.0).  The bounds
        # decide, so an event always lies in [start, end) of its window and
        # never in one the watermark at its own time has already closed.
        index = int((time_s - self._start_s) // self._window_s)
        if time_s >= self._start_s + (index + 1) * self._window_s:
            return index + 1
        if time_s < self._start_s + index * self._window_s:
            return index - 1
        return index

    # ------------------------------------------------------------------ #

    def add(self, query: Query) -> List[Window]:
        """Ingest one event; return any windows this event just closed.

        Closed windows are returned in index order.  A late event (its
        window already emitted) is dropped and counted in
        :attr:`late_events`; the return value is then empty, since a late
        event can never advance the watermark past a still-open window.
        """
        time_s = query.arrival_time
        if time_s < self._start_s:
            self.window_index(time_s)  # raises: the event precedes the stream
        index = self._index(time_s)
        if index <= self._closed_through:
            self._late += 1
            return []
        events = self._open.get(index)
        if events is None:
            self._open[index] = [query]
            end = self.window_bounds(index)[1]
            if end < self._next_close_s:
                self._next_close_s = end
        else:
            events.append(query)
        self._accepted += 1
        if time_s > self._max_event_time:
            self._max_event_time = time_s
        if self._next_close_s > self._max_event_time - self._lateness_s:
            return []
        return self._close_ripe()

    def extend(self, queries: Iterable[Query]) -> List[Window]:
        """Ingest many events; return every window they closed, in order."""
        closed: List[Window] = []
        for query in queries:
            closed.extend(self.add(query))
        return closed

    def flush(self) -> List[Window]:
        """Close every remaining open window (end of stream), in order."""
        closed = [self._emit(index) for index in sorted(self._open)]
        self._next_close_s = math.inf
        if closed:
            self._closed_through = max(self._closed_through, closed[-1].index)
        return closed

    def fast_forward(
        self, closed_through: int, max_event_time_s: float = -math.inf
    ) -> None:
        """Adopt a resumed stream position (checkpoint replay).

        Windows up to and including ``closed_through`` are sealed — events
        for them are late, exactly as if this manager had emitted them —
        and the watermark resumes from ``max_event_time_s`` (the largest
        event time the journalled stream had seen).  Only valid before any
        events have been ingested: fast-forwarding past open windows would
        drop accepted events.
        """
        if self._open:
            raise ValueError(
                f"cannot fast-forward past open windows {self.open_windows}"
            )
        self._closed_through = max(self._closed_through, int(closed_through))
        if max_event_time_s > self._max_event_time:
            self._max_event_time = float(max_event_time_s)

    # ------------------------------------------------------------------ #

    def _close_ripe(self) -> List[Window]:
        """Emit every open window whose end the watermark has passed."""
        watermark = self.watermark_s
        ripe = sorted(
            index
            for index in self._open
            if self.window_bounds(index)[1] <= watermark
        )
        closed = [self._emit(index) for index in ripe]
        self._next_close_s = min(
            (self.window_bounds(index)[1] for index in self._open), default=math.inf
        )
        if ripe:
            # Empty windows between emitted ones never materialise (no
            # events, nothing to simulate), but anything at or below the
            # highest emitted index is now sealed against late arrivals.
            self._closed_through = max(self._closed_through, ripe[-1])
        return closed

    def _emit(self, index: int) -> Window:
        start, end = self.window_bounds(index)
        return Window(
            index=index,
            start_s=start,
            end_s=end,
            queries=tuple(self._open.pop(index)),
        )

    def __repr__(self) -> str:
        return (
            f"WindowManager(window_s={self._window_s}, "
            f"lateness_s={self._lateness_s}, open={self.open_windows}, "
            f"accepted={self._accepted}, late={self._late})"
        )
