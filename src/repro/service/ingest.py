"""Ingest loop for the digital-twin service: a trivial line protocol.

The broker is deliberately not the substance of the service — the windowing
and dual-config simulation are — so ingest is a newline-delimited event
protocol any producer can speak over TCP, stdin, or an in-process replay:

* JSON object per line: ``{"query_id": 7, "arrival_time": 12.5, "size": 64}``
  (ids and sizes are JSON integers; floats and booleans are malformed, as
  their text is in the CSV form)
* or bare CSV per line: ``7,12.5,64``
* blank lines and ``#`` comments are ignored.

A JSON line is read by one C-level scan of the whole line (the decoder
``json.loads`` itself uses, minus its Python wrapper); the line is an event
only if that one value ends the line.  Malformed input of any kind — bad
syntax, trailing data, wrong types, nesting too deep to decode — raises
:class:`ValueError` from :func:`parse_event`, which the pipeline counts in
``malformed_lines`` and skips; it never ends the service.

Timestamps are **event time** (seconds on the trace's clock), exactly the
``arrival_time`` the batch drivers feed the simulators — so a recorded
:class:`~repro.queries.trace.QueryTrace` replays through the service and
produces bit-identical cumulative measurements.

:class:`IngestPipeline` is the glue: parse line → window manager → twin →
report sink.  :func:`serve_tcp` and :func:`run_stdin` are thin asyncio /
blocking front ends over it.

>>> parse_event('{"query_id": 1, "arrival_time": 2.5, "size": 32}')
Query(query_id=1, arrival_time=2.5, size=32)
>>> parse_event("2, 3.75, 64")
Query(query_id=2, arrival_time=3.75, size=64)
>>> parse_event("# comment") is None
True
>>> parse_event("not an event")
Traceback (most recent call last):
    ...
ValueError: unparseable event line: 'not an event'
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Callable, Iterable, List, Optional

from repro.queries.query import Query
from repro.service.checkpoint import WindowJournal
from repro.service.twin import DigitalTwin, TwinWindowReport
from repro.service.windows import Window, WindowManager

#: Maximum accepted line length (a malformed producer must not buffer-bomb
#: the service; real event lines are well under 200 bytes).
MAX_LINE_BYTES = 64 * 1024

#: One C-level JSON scan: ``(value, end)`` of the value starting at an index.
_scan_json = json.JSONDecoder().scan_once


def parse_event(line: str) -> Optional[Query]:
    """Parse one protocol line into a :class:`~repro.queries.query.Query`.

    Returns ``None`` for blank/comment lines; raises :class:`ValueError`
    for anything else that does not parse (the pipeline counts those and
    keeps going — one bad producer must not wedge the service).
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    try:
        if text.startswith("{"):
            # The line is stripped, so the object must end exactly at its end.
            payload, end = _scan_json(text, 0)
            if end != len(text):
                raise ValueError("trailing data after the JSON object")
            query_id = payload["query_id"]
            arrival_time = payload["arrival_time"]
            size = payload["size"]
            if type(query_id) is int and type(size) is int and type(arrival_time) is float:
                return Query(query_id, arrival_time, size)
            # JSON values must mean what the CSV form's text would: ids and
            # sizes are integers (a float such as 2.7 is not truncated), and
            # no field is a boolean.
            if isinstance(query_id, (bool, float)) or isinstance(size, (bool, float)):
                raise TypeError("query_id and size must be integers")
            if isinstance(arrival_time, bool):
                raise TypeError("arrival_time must be a number")
            return Query(int(query_id), float(arrival_time), int(size))
        fields = text.split(",")
        if len(fields) == 3:
            return Query(
                query_id=int(fields[0]),
                arrival_time=float(fields[1]),
                size=int(fields[2]),
            )
    # JSONDecodeError is a ValueError; the raw scan raises StopIteration where
    # no value starts and RecursionError on nesting too deep to decode.
    except (KeyError, TypeError, ValueError, OverflowError, StopIteration, RecursionError):
        pass
    raise ValueError(f"unparseable event line: {text!r}")


class IngestPipeline:
    """Parse → window → simulate → publish, as one reusable object.

    Every transport (TCP connections, stdin, the example's in-process
    replay) feeds the same pipeline, so the service behaves identically no
    matter how events arrive.  ``sink`` is called once per closed window
    with the twin's :class:`~repro.service.twin.TwinWindowReport`.

    Resilience knobs: ``journal`` (a
    :class:`~repro.service.checkpoint.WindowJournal`) records every closed
    window *after* it is observed, so a crashed service resumes without
    reprocessing; ``shed_above`` bounds how many backlogged windows one
    ingest batch fully reports on — when a stall clears and more windows
    than that close at once, the oldest beyond the budget are *absorbed*
    (events simulated, report and capacity search skipped, counted in
    :attr:`shed_windows`) so the service catches up instead of falling
    further behind.
    """

    def __init__(
        self,
        windows: WindowManager,
        twin: DigitalTwin,
        sink: Optional[Callable[[TwinWindowReport], None]] = None,
        journal: Optional["WindowJournal"] = None,
        shed_above: int = 0,
    ) -> None:
        if shed_above < 0:
            raise ValueError(f"shed_above must be >= 0, got {shed_above}")
        self.windows = windows
        self.twin = twin
        self._sink = sink
        self._journal = journal
        self._shed_above = shed_above
        self.reports: List[TwinWindowReport] = []
        self.malformed_lines = 0
        self.shed_windows = 0
        self.idle_disconnects = 0

    # ------------------------------------------------------------------ #

    def feed(self, query: Query) -> List[TwinWindowReport]:
        """Ingest one already-parsed event."""
        closed = self.windows.add(query)
        return self._observe_closed(closed) if closed else []

    def feed_line(self, line: str) -> List[TwinWindowReport]:
        """Ingest one protocol line (malformed lines are counted, not fatal)."""
        try:
            query = parse_event(line)
        except ValueError:
            self.malformed_lines += 1
            return []
        if query is None:
            return []
        closed = self.windows.add(query)
        return self._observe_closed(closed) if closed else []

    def feed_lines(self, lines: Iterable[str]) -> List[TwinWindowReport]:
        """Ingest many protocol lines; reports for every window they closed."""
        reports: List[TwinWindowReport] = []
        for line in lines:
            reports.extend(self.feed_line(line))
        return reports

    def finish(self) -> List[TwinWindowReport]:
        """End of stream: flush open windows and return their reports."""
        return self._observe_closed(self.windows.flush())

    def _observe_closed(self, closed: List[Window]) -> List[TwinWindowReport]:
        if self._shed_above and len(closed) > self._shed_above:
            # Load shedding: a backlog burst closed more windows than the
            # budget allows reporting on.  Absorb the oldest beyond it —
            # their events still advance the twin's event loops, so every
            # later report is bit-identical to the unshed run — and observe
            # only the newest ``shed_above``.
            backlog = len(closed) - self._shed_above
            for window in closed[:backlog]:
                self.twin.absorb(window)
                if self._journal is not None:
                    self._journal.append(window)
            self.shed_windows += backlog
            closed = closed[backlog:]
        reports: List[TwinWindowReport] = []
        for window in closed:
            report = self.twin.observe(window)
            # Journal *after* observing: a crash in between re-observes
            # this window on resume (at-least-once), never skips it.
            if self._journal is not None:
                self._journal.append(window)
            reports.append(report)
        self.reports.extend(reports)
        if self._sink is not None:
            for report in reports:
                self._sink(report)
        return reports


# --------------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------------- #


async def serve_tcp(
    pipeline: IngestPipeline,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    one_shot: bool = False,
    on_listening: Optional[Callable[[int], None]] = None,
    handle_signals: bool = False,
    idle_timeout_s: Optional[float] = 60.0,
) -> bool:
    """Accept event lines over TCP until cancelled (or, if ``one_shot``,
    until the first client disconnects — the mode tests and demos use).

    ``on_listening`` receives the bound port once the socket is ready,
    which is how callers using ``port=0`` (an ephemeral port) learn where
    to connect.  On shutdown the pipeline is flushed, so a final partial
    window is still reported.

    With ``handle_signals``, SIGINT/SIGTERM are caught on the event loop
    and trigger the same clean shutdown path (flush, then return) instead
    of unwinding the loop with a traceback; the return value is True when
    a signal (rather than a disconnect or cancellation) ended the serve.

    ``idle_timeout_s`` bounds how long one connection may sit silent: a
    half-open client (crashed producer, dropped NAT mapping) is
    disconnected after that long instead of holding its reader task — and,
    in ``one_shot`` mode, the whole service — forever.  Disconnects are
    counted in ``pipeline.idle_disconnects``; ``None`` disables the bound.
    """
    done = asyncio.Event()
    signalled: List[int] = []

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    if idle_timeout_s is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=idle_timeout_s
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    # Half-open peer: drop it cleanly rather than keeping
                    # its reader task alive forever.
                    pipeline.idle_disconnects += 1
                    break
                except ValueError:
                    # Line exceeded even the reader's buffer limit; the
                    # reader drops the chunk and stays usable.
                    pipeline.malformed_lines += 1
                    continue
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    pipeline.malformed_lines += 1
                    continue
                for report in pipeline.feed_line(line.decode("utf-8", "replace")):
                    writer.write((report.summary_line() + "\n").encode())
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer is gone; the close already succeeded locally
            if one_shot:
                done.set()

    # The reader limit sits above MAX_LINE_BYTES so a barely-oversized line
    # is read whole and rejected by the explicit length gate (counted once),
    # rather than tripping the stream reader's buffer-limit ValueError.
    loop = asyncio.get_running_loop()
    installed: List[int] = []
    if handle_signals:
        def _on_signal(signum: int) -> None:
            signalled.append(signum)
            done.set()

        # Installed before the socket binds, so by the time a caller's
        # on_listening fires (their readiness marker) signals already take
        # the clean path.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _on_signal, signum)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix loop or non-main thread: default delivery
    server = await asyncio.start_server(handle, host, port, limit=4 * MAX_LINE_BYTES)
    try:
        bound_port = server.sockets[0].getsockname()[1]
        if on_listening is not None:
            on_listening(bound_port)
        # Without one_shot or a signal the event is never set: serve until
        # cancelled, exactly the pre-signal-handling behaviour.
        await done.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        server.close()
        await server.wait_closed()
        pipeline.finish()
    return bool(signalled)


def run_stdin(pipeline: IngestPipeline) -> List[TwinWindowReport]:
    """Blocking front end: read event lines from stdin until EOF, flush."""
    pipeline.feed_lines(sys.stdin)
    pipeline.finish()
    return pipeline.reports
