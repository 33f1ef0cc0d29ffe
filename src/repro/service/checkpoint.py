"""Crash-safe window checkpointing for the digital-twin service.

The twin's only irreplaceable state is the sequence of closed windows it
has observed — everything else (event loops, capacity predictions, rate
trackers) is a deterministic function of that sequence.  So the service
journals exactly that: one JSON line per closed window, appended to
``windows.jsonl`` under the checkpoint directory *after* the window has
been observed.  On restart the journal is replayed through
:meth:`~repro.service.twin.DigitalTwin.restore` (each window's events fed
once, no reports) and the
:class:`~repro.service.windows.WindowManager` is fast-forwarded past the
journalled stream position — the resumed service reports bit-identical
cumulative measurements without reprocessing a single event.

Record format (one per line)::

    {"index": 3, "start_s": 30.0, "end_s": 40.0,
     "queries": [[query_id, arrival_time, size], ...]}

A torn final line — the crash happened mid-append — is tolerated:
:meth:`WindowJournal.load` stops at the first corrupt record and exposes
the count in :attr:`WindowJournal.corrupt_records`.  Because windows are
journalled only after observation, a crash between observe and append
re-observes that window on resume (at-least-once), never skips it.

>>> import tempfile
>>> from repro.queries.query import Query
>>> from repro.service.windows import Window
>>> with tempfile.TemporaryDirectory() as root:
...     journal = WindowJournal(root)
...     journal.append(Window(0, 0.0, 10.0, (Query(0, 1.0, 16),)))
...     with open(journal.path, "a") as torn:
...         _ = torn.write('{"index": 1, "start_s')  # crash mid-append
...     journal = WindowJournal(root)
...     ([w.index for w in journal.load()], journal.corrupt_records)
([0], 1)
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Union

from repro.queries.query import Query
from repro.service.windows import Window

#: Journal file name under the checkpoint directory.
JOURNAL_NAME = "windows.jsonl"


class WindowJournal:
    """Append-only JSONL journal of observed windows in one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._path = self._dir / JOURNAL_NAME
        #: Records dropped by the last :meth:`load` (torn tail of a crash).
        self.corrupt_records = 0

    @property
    def path(self) -> Path:
        """The journal file (may not exist before the first append)."""
        return self._path

    def append(self, window: Window) -> None:
        """Durably append one observed window (fsync'd: crash-safe)."""
        record = {
            "index": window.index,
            "start_s": window.start_s,
            "end_s": window.end_s,
            "queries": [
                [query.query_id, query.arrival_time, query.size]
                for query in window.queries
            ],
        }
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self) -> List[Window]:
        """Replay the journal: every intact window, in journalled order.

        Stops at the first corrupt record (a torn write from a crash
        mid-append) rather than raising — everything before it is intact
        by construction, everything after it is unreachable context.  The
        dropped count lands in :attr:`corrupt_records`.
        """
        self.corrupt_records = 0
        if not self._path.exists():
            return []
        windows: List[Window] = []
        with open(self._path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                    window = Window(
                        index=int(record["index"]),
                        start_s=float(record["start_s"]),
                        end_s=float(record["end_s"]),
                        queries=tuple(
                            Query(
                                query_id=int(fields[0]),
                                arrival_time=float(fields[1]),
                                size=int(fields[2]),
                            )
                            for fields in record["queries"]
                        ),
                    )
                except (
                    json.JSONDecodeError,
                    KeyError,
                    IndexError,
                    TypeError,
                    ValueError,
                    OverflowError,  # a float field past the float range
                    RecursionError,  # JSON nested too deeply to decode
                ):
                    # This line plus anything after it (unreachable once
                    # the journal's tail integrity is gone).
                    self.corrupt_records = 1 + sum(1 for _ in handle)
                    break
                windows.append(window)
        return windows

    def __repr__(self) -> str:
        return f"WindowJournal(path={str(self._path)!r})"
