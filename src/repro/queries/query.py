"""Query records and rows: what the load generator produces and the simulator reads.

The event loop reads three fields of a query, so it consumes plain
``(query_id, arrival_time, size)`` row tuples.  Generated traces hold rows
and build a :class:`Query` only when one is read: a :class:`QueryTrace`
(what :meth:`~repro.queries.generator.LoadGenerator.generate` and
:func:`~repro.queries.trace.generate_diurnal_trace` return) keeps its rows
in arrival order, and a :class:`QueryStream` hands a synthesized trace over
one chunk at a time.  :func:`arrival_rows` gives the event loop the rows of
either a trace or any other collection of records.

>>> from repro.queries.generator import LoadGenerator
>>> trace = LoadGenerator(seed=1).generate(3)
>>> [(query_id, round(time, 4), size) for query_id, time, size in arrival_rows(trace)]
[(0, 0.002, 452), (1, 0.0049, 220), (2, 0.0157, 306)]
>>> trace[0].size, [query.query_id for query in trace]
(452, [0, 1, 2])
>>> trace == [Query(0, trace[0].arrival_time, 452), trace[1], trace[2]]
True
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from itertools import chain, starmap
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

_INFINITY = math.inf


class Query:
    """One recommendation inference query.

    A query asks for the click-through rates of ``size`` candidate items for
    one user; the serving system may split it into multiple requests and/or
    offload it to an accelerator, but its latency is measured end to end from
    ``arrival_time`` until the last of its items has been scored.

    A plain ``__slots__`` record: simulated runs build one per query, by the
    hundred thousand, and a slotted class builds about 3x faster than a
    frozen dataclass (which pays ``object.__setattr__`` per field).  It
    keeps value semantics — equality and hashing over the field tuple, and
    the dataclass-style ``repr`` — but immutability is by convention only:
    nothing stops an assignment, and nothing in the library makes one.

    Attributes
    ----------
    query_id:
        Monotonically increasing identifier within a trace.
    arrival_time:
        Absolute arrival timestamp in seconds (finite).
    size:
        Number of candidate items to score (the "working set size").
    """

    __slots__ = ("query_id", "arrival_time", "size")

    def __init__(self, query_id: int, arrival_time: float, size: int) -> None:
        # The valid case takes a single guard; the helpers (and their error
        # messages) only run for bad values.
        if not (query_id >= 0 and 0.0 <= arrival_time < _INFINITY and size > 0):
            check_non_negative("query_id", query_id)
            check_non_negative("arrival_time", arrival_time)
            if not math.isfinite(arrival_time):
                raise ValueError(f"arrival_time must be finite, got {arrival_time!r}")
            check_positive("size", size)
        self.query_id = query_id
        self.arrival_time = arrival_time
        self.size = size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Query) and other.__class__ is self.__class__:
            return (self.query_id, self.arrival_time, self.size) == (
                other.query_id,
                other.arrival_time,
                other.size,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(  # reprolint: disable=RL001 -- int/float-only tuple; unsalted across processes
            (self.query_id, self.arrival_time, self.size)
        )

    def __repr__(self) -> str:
        return (
            f"Query(query_id={self.query_id!r}, "
            f"arrival_time={self.arrival_time!r}, size={self.size!r})"
        )


#: One arrival as the event loop reads it: ``(query_id, arrival_time, size)``.
Row = Tuple[int, float, int]

#: A :class:`Query`'s row, built by one C-level call.
query_row = operator.attrgetter("query_id", "arrival_time", "size")

_row_time = operator.itemgetter(1)
_row_size = operator.itemgetter(2)


def arrival_rows(queries: Iterable[Query]) -> List[Row]:
    """The rows of ``queries`` in arrival order (stable for equal times), a new list.

    A :class:`QueryTrace` already holds its rows in that order, so they are
    copied without a sort; any other iterable is converted in the sort.
    """
    if isinstance(queries, QueryTrace):
        return list(queries._rows)
    return sorted(map(query_row, queries), key=_row_time)


#: Chunks of a synthesized trace: ``(arrival_times, sizes)`` numpy arrays.
Chunks = Iterable[Tuple[np.ndarray, np.ndarray]]

#: Checked columns of a trace: query ids, arrival times and sizes.
Columns = Tuple[range, List[float], List[int]]


class QueryStream:
    """A synthesized trace, read once, as :class:`Query` records or as rows.

    ``chunks`` is a zero-argument callable returning the trace's
    ``(arrival_times, sizes)`` chunks in arrival order; query ids count up
    from 0.  It is called only when reading starts, so a chunk source it
    looks up by name is resolved then.  Each chunk is checked, in one
    vectorised pass, against what ``Query`` rejects.  Iterating yields
    ``Query`` records; :meth:`rows` yields ``(query_id, arrival_time,
    size)`` tuples zipped straight from each chunk — what the event loop
    consumes, so a streamed run builds no per-query object.
    """

    __slots__ = ("_chunks",)

    def __init__(self, chunks: Callable[[], Chunks]) -> None:
        self._chunks: Optional[Callable[[], Chunks]] = chunks

    def __iter__(self) -> Iterator[Query]:
        return starmap(Query, self.rows())

    def rows(self) -> Iterator[Row]:
        """The trace as rows, in arrival order."""
        return chain.from_iterable(starmap(zip, _chunk_columns(self._take())))

    def _take(self) -> Callable[[], Chunks]:
        chunks = self._chunks
        if chunks is None:
            raise ValueError("a QueryStream can be read only once")
        self._chunks = None
        return chunks


def _chunk_columns(chunks: Callable[[], Chunks]) -> Iterator[Columns]:
    """Each chunk's ids, arrival times and sizes as Python sequences, checked."""
    first = 0
    for times, sizes in chunks():
        yield _checked_columns(first, times, sizes)
        first += len(times)


def _checked_columns(first: int, times: np.ndarray, sizes: np.ndarray) -> Columns:
    """Ids from ``first``, arrival times and sizes as Python sequences.

    Raises the error :class:`Query` would raise for the first arrival it
    rejects.
    """
    count = len(times)
    # Reductions, not masks: no temporary arrays, and a NaN fails too.
    if count and not (
        times.min() >= 0.0 and times.max() < _INFINITY and sizes.min() > 0
    ):
        valid = (times >= 0.0) & (times < _INFINITY) & (sizes > 0)
        bad = int(valid.argmin())
        # Query raises the error it would raise for this arrival.
        Query(first + bad, times[bad].item(), sizes[bad].item())
    return range(first, first + count), times.tolist(), sizes.tolist()


class QueryTrace(Sequence[Query]):
    """A recorded trace: rows in arrival order, read as :class:`Query` records.

    The trace holds one list of ``(query_id, arrival_time, size)`` rows,
    sorted by arrival time (stable for equal times), and builds a ``Query``
    only when one is read: iterating, indexing (a slice gives a ``list``)
    and :attr:`queries` yield records, while :func:`arrival_rows` hands the
    rows to the event loop as they are.  Equality is by value, with another
    trace or with a list or tuple of ``Query`` in arrival order.
    """

    __slots__ = ("_rows",)
    __hash__ = None  # type: ignore[assignment]  # equal to lists, so unhashable

    def __init__(self, queries: Iterable[Query]) -> None:
        self._rows: List[Row] = arrival_rows(queries)

    @classmethod
    def from_columns(cls, arrival_times: np.ndarray, sizes: np.ndarray) -> "QueryTrace":
        """The trace of query ``i`` arriving at ``arrival_times[i]`` with ``sizes[i]``.

        The columns are checked in one vectorised pass; a value ``Query``
        rejects raises ``Query``'s own error for the first such arrival.
        Rows stay in id order when the times never decrease (any
        ``start + cumsum(gaps)``); otherwise a stable argsort puts them in
        arrival order, as the constructor's sort would.
        """
        ids, times, counts = _checked_columns(0, arrival_times, sizes)
        rows = list(zip(ids, times, counts))
        if len(rows) > 1 and (arrival_times[1:] < arrival_times[:-1]).any():
            order = np.argsort(arrival_times, kind="stable").tolist()
            rows = [rows[index] for index in order]
        return cls._of_rows(rows)

    @classmethod
    def _of_rows(cls, rows: List[Row]) -> "QueryTrace":
        trace = cls.__new__(cls)
        trace._rows = rows
        return trace

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Query]:
        return starmap(Query, self._rows)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return list(starmap(Query, self._rows[index]))
        return Query(*self._rows[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryTrace):
            return self._rows == other._rows
        if isinstance(other, (list, tuple)):
            return self.queries == list(other)
        return NotImplemented

    @property
    def queries(self) -> List[Query]:
        """The queries in arrival order (a new list)."""
        return list(self)

    @property
    def duration_s(self) -> float:
        """Time spanned by the trace."""
        rows = self._rows
        if not rows:
            return 0.0
        return rows[-1][1] - rows[0][1]

    @property
    def mean_rate_qps(self) -> float:
        """Average arrival rate over the trace."""
        if len(self._rows) < 2 or self.duration_s == 0:
            return 0.0
        return (len(self._rows) - 1) / self.duration_s

    def total_items(self) -> int:
        """Sum of query sizes (total inference work in candidate items)."""
        return sum(map(_row_size, self._rows))

    def until(self, time_s: float) -> "QueryTrace":
        """The trace of the queries arriving no later than ``time_s``."""
        return self._of_rows(
            self._rows[: bisect_right(list(map(_row_time, self._rows)), time_s)]
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines (query_id, arrival_time, size)."""
        with Path(path).open("w") as handle:
            for query_id, arrival_time, size in self._rows:
                record = {"query_id": query_id, "arrival_time": arrival_time, "size": size}
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "QueryTrace":
        """Read a trace previously written by :meth:`save`."""
        queries = []
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                queries.append(
                    Query(
                        query_id=int(record["query_id"]),
                        arrival_time=float(record["arrival_time"]),
                        size=int(record["size"]),
                    )
                )
        return cls(queries)
