"""Statistics helpers: percentiles and CDF comparison.

The serving simulator measures p95/p99 tail latency over tens of thousands of
queries; ``PercentileTracker`` keeps the raw samples (latencies are small
floats, so this is cheap) and computes arbitrary percentiles on demand.  For
million-query traces, where exact buffering becomes the peak-RSS driver, the
opt-in ``PercentileTracker(mode="sketch")`` delegates to the fixed-space
:class:`repro.utils.sketch.QuantileSketch` instead — same recording API,
approximate percentiles within the sketch's documented rank-error bound,
no retained samples.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.utils.sketch import QuantileSketch


def percentile(samples: "Union[Sequence[float], np.ndarray]", pct: float) -> float:
    """Return the ``pct``-th percentile (0-100) of ``samples``.

    Uses linear interpolation, matching ``numpy.percentile`` defaults.  Raises
    ``ValueError`` on an empty sample set because a tail-latency statistic over
    zero queries is meaningless (silently returning 0 would hide load-generator
    bugs).
    """
    _check_percentile_args(len(samples), pct)
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def percentile_of_sorted(sorted_samples: np.ndarray, pct: float) -> float:
    """``numpy.percentile(sorted_samples, pct)`` by index, bit for bit.

    ``sorted_samples`` must be an ascending float64 array, NaNs last (as
    ``np.sort`` leaves them).  numpy's default ``linear`` method then
    reduces to two element reads and one interpolation, which this helper
    does directly instead of paying ``np.percentile``'s ~70 µs of dispatch
    per call.  Each step follows numpy's own arithmetic, including its
    edge cases (an index at or past the last element, infinities, NaN), so
    the result is identical to the last bit.
    """
    n = sorted_samples.shape[0]
    _check_percentile_args(n, pct)
    last = sorted_samples.item(n - 1)
    if last != last:  # a NaN sorts last, and numpy then returns it
        return last
    virtual = (n - 1) * (pct / 100)
    if virtual >= n - 1:
        # numpy clamps both neighbours to the last element, yet takes the
        # weight against index -1.
        below = above = last
        gamma = virtual + 1
    else:
        index = math.floor(virtual)
        below = sorted_samples.item(index)
        above = sorted_samples.item(index + 1)
        gamma = virtual - index
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def _check_percentile_args(count: int, pct: float) -> None:
    if count == 0:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")


def geometric_mean(values: Sequence[float]) -> float:
    """Return the geometric mean of strictly positive ``values``.

    The paper reports speedups aggregated across the eight models as a
    geometric mean (Fig. 11 "GeoMean" column).
    """
    if len(values) == 0:
        raise ValueError("cannot take a geometric mean of an empty sequence")
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def max_relative_cdf_gap(
    reference: Sequence[float],
    other: Sequence[float],
    percentiles: Iterable[float] = (50, 75, 90, 95, 99),
) -> float:
    """Return the maximum relative gap between two latency distributions.

    Used for the Fig. 7 claim that a handful of nodes track the datacenter-wide
    latency distribution to within ~10 %: the gap is measured at a set of
    percentiles and normalised by the reference value.
    """
    gaps: List[float] = []
    for pct in percentiles:
        ref = percentile(reference, pct)
        oth = percentile(other, pct)
        if ref == 0:
            continue
        gaps.append(abs(oth - ref) / abs(ref))
    if not gaps:
        return 0.0
    return max(gaps)


class PercentileTracker:
    """Collects latency samples and reports percentiles.

    In the default ``mode="exact"``, samples accumulate into a growable
    ``numpy`` buffer (no per-sample Python list work in the simulators' hot
    loop), and percentile queries share one sorted copy computed on first
    use after the run — repeated p50/p95/p99 calls do not re-sort.  Values
    reported are identical to the previous list-based implementation.

    In ``mode="sketch"``, samples stream into a fixed-space
    :class:`repro.utils.sketch.QuantileSketch`: memory stays O(1) in the
    stream length, percentiles are approximate within the sketch's
    documented rank-error bound, count/mean stay exact, and
    :meth:`samples` raises (nothing is retained).
    """

    __slots__ = ("_buffer", "_count", "_sorted", "_sketch")

    def __init__(self, mode: str = "exact") -> None:
        if mode not in ("exact", "sketch"):
            raise ValueError(f"mode must be 'exact' or 'sketch', got {mode!r}")
        self._buffer = np.empty(256, dtype=np.float64)
        self._count = 0
        self._sorted: "np.ndarray | None" = None
        self._sketch: Optional[QuantileSketch] = (
            QuantileSketch() if mode == "sketch" else None
        )

    @property
    def mode(self) -> str:
        """``"exact"`` or ``"sketch"``."""
        return "exact" if self._sketch is None else "sketch"

    def _reserve(self, extra: int) -> None:
        needed = self._count + extra
        capacity = self._buffer.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.float64)
            grown[: self._count] = self._buffer[: self._count]
            self._buffer = grown

    def add(self, value: float) -> None:
        """Record one sample.

        Invalidates the cached sort, so a percentile computed *before* this
        call never masks samples recorded after it — the
        record-after-percentile staleness contract pinned by
        ``tests/test_utils_stats.py::TestTrackerSortCacheInvalidation``.
        """
        count = self._count
        if self._sketch is not None:
            self._count = count + 1
            self._sketch.add(value)
            return
        buffer = self._buffer
        if count == buffer.shape[0]:
            self._reserve(1)
            buffer = self._buffer
        buffer[count] = value
        self._count = count + 1
        self._sorted = None

    def extend(self, values: "Union[Iterable[float], np.ndarray]") -> None:
        """Record many samples (invalidates the cached sort, like :meth:`add`).

        An ``ndarray`` argument takes a bulk fast path — one capacity
        reservation and one slice copy, no per-element iteration — which is
        what the chunked simulator paths feed; lists and other iterables
        convert first.  Recorded values are identical either way.
        """
        if isinstance(values, np.ndarray):
            arr = values.astype(np.float64, copy=False)
        elif isinstance(values, (list, tuple)):
            arr = np.asarray(values, dtype=np.float64)
        else:
            arr = np.fromiter(values, dtype=np.float64)
        if self._sketch is not None:
            self._count += int(arr.shape[0])
            self._sketch.extend(arr)
            return
        self._reserve(arr.shape[0])
        self._buffer[self._count : self._count + arr.shape[0]] = arr
        self._count += arr.shape[0]
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    def _recorded(self) -> np.ndarray:
        return self._buffer[: self._count]

    def _recorded_sorted(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self._recorded())
        return self._sorted

    def samples(self) -> List[float]:
        """Return the samples (a copy, in insertion order).

        Raises ``ValueError`` in sketch mode: the sketch retains a bounded
        summary, not the samples, and silently returning the summary items
        would misrepresent the stream.
        """
        if self._sketch is not None:
            raise ValueError("samples are not retained in sketch mode")
        return self._recorded().tolist()

    def percentile(self, pct: float) -> float:
        """Return the ``pct``-th percentile of the samples.

        Exact in the default mode; within the sketch's documented
        rank-error bound in sketch mode.
        """
        if self._sketch is not None:
            return self._sketch.percentile(pct)
        return percentile_of_sorted(self._recorded_sorted(), pct)

    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50)

    def p95(self) -> float:
        """95th-percentile latency (the paper's SLA metric)."""
        return self.percentile(95)

    def p99(self) -> float:
        """99th-percentile latency."""
        return self.percentile(99)

    def mean(self) -> float:
        """Mean of the samples (exact in both modes)."""
        if self._count == 0:
            raise ValueError("no samples recorded")
        if self._sketch is not None:
            return self._sketch.mean()
        return float(np.mean(self._recorded()))
