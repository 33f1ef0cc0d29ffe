"""Query records and rows: what the load generator produces and the simulator reads.

The event loop reads three fields of a query, so it consumes plain
``(query_id, arrival_time, size)`` row tuples.  :func:`arrival_rows` turns
:class:`Query` records into sorted rows; a :class:`QueryStream` hands a
synthesized trace over as rows without building a record per query.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, starmap
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

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


def arrival_rows(queries: Iterable[Query]) -> List[Row]:
    """The rows of ``queries`` in arrival order (stable for equal times)."""
    return sorted(map(query_row, queries), key=_row_time)


#: Chunks of a synthesized trace: ``(arrival_times, sizes)`` numpy arrays.
Chunks = Iterable[Tuple[np.ndarray, np.ndarray]]


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


def _chunk_columns(chunks: Callable[[], Chunks]) -> Iterator[Tuple[range, List[float], List[int]]]:
    """Each chunk's ids, arrival times and sizes as Python sequences, checked."""
    first = 0
    for times, sizes in chunks():
        count = len(times)
        # Reductions, not masks: no temporary arrays, and a NaN fails too.
        if count and not (
            times.min() >= 0.0 and times.max() < _INFINITY and sizes.min() > 0
        ):
            valid = (times >= 0.0) & (times < _INFINITY) & (sizes > 0)
            bad = int(valid.argmin())
            # Query raises the error it would raise for this arrival.
            Query(first + bad, times[bad].item(), sizes[bad].item())
        yield range(first, first + count), times.tolist(), sizes.tolist()
        first += count
