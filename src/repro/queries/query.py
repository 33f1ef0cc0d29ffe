"""Query record produced by the load generator and consumed by the simulator."""

from __future__ import annotations

import math

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
