"""Statistics helpers: percentiles, streaming moments, CDF comparison.

The serving simulator measures p95/p99 tail latency over tens of thousands of
queries; ``PercentileTracker`` keeps the raw samples (latencies are small
floats, so this is cheap) and computes arbitrary percentiles on demand.  For
million-query traces, where exact buffering becomes the peak-RSS driver, the
opt-in ``PercentileTracker(mode="sketch")`` delegates to the fixed-space
:class:`repro.utils.sketch.QuantileSketch` instead — same recording API,
approximate percentiles within the sketch's documented rank-error bound,
no retained samples.  ``StreamingStats`` keeps constant-space running
moments for counters that do not need percentiles (e.g. per-core busy time).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

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


def cdf_points(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, cumulative_probabilities)`` for plotting a CDF."""
    if len(samples) == 0:
        raise ValueError("cannot build a CDF from an empty sample set")
    values = np.sort(np.asarray(samples, dtype=float))
    probs = np.arange(1, len(values) + 1) / len(values)
    return values, probs


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

    Parameters
    ----------
    warmup:
        Number of initial samples to discard before statistics are computed.
        The serving simulator uses this to exclude the queue ramp-up transient.
    mode:
        ``"exact"`` (default) buffers every sample; ``"sketch"`` streams
        into a fixed-space quantile sketch.
    """

    __slots__ = ("_warmup", "_buffer", "_count", "_sorted", "_sketch")

    def __init__(self, warmup: int = 0, mode: str = "exact") -> None:
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if mode not in ("exact", "sketch"):
            raise ValueError(f"mode must be 'exact' or 'sketch', got {mode!r}")
        self._warmup = warmup
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

    def reset(self) -> None:
        """Discard all samples; capacity is kept, the sort cache is dropped.

        Long-lived consumers (the digital-twin service's per-window state)
        reuse one tracker across event-time windows; dropping the cached
        sort here is what keeps a percentile computed before the reset from
        leaking into the next window's statistics.
        """
        self._count = 0
        self._sorted = None
        if self._sketch is not None:
            self._sketch = QuantileSketch()

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
            if count >= self._warmup:
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
            skip = max(0, self._warmup - self._count)
            self._count += int(arr.shape[0])
            if skip < arr.shape[0]:
                self._sketch.extend(arr[skip:])
            return
        self._reserve(arr.shape[0])
        self._buffer[self._count : self._count + arr.shape[0]] = arr
        self._count += arr.shape[0]
        self._sorted = None

    def merge(self, other: "PercentileTracker") -> None:
        """Fold ``other``'s post-warmup samples into this tracker.

        Both trackers must be warmup-free (aggregation trackers are) and
        share a mode.  In exact mode the samples concatenate; in sketch
        mode the underlying sketches merge in fixed space — the whole point
        of sketch-mode window aggregation.
        """
        if self._warmup or other._warmup:
            raise ValueError("merge supports warmup-free trackers only")
        if other.mode != self.mode:
            raise ValueError(
                f"cannot merge a {other.mode!r}-mode tracker into {self.mode!r}"
            )
        if self._sketch is not None:
            assert other._sketch is not None  # same mode, checked above
            self._sketch.merge(other._sketch)
            self._count += other._count
            return
        self.extend(other._post_warmup())

    @property
    def count(self) -> int:
        """Number of samples recorded after the warmup window."""
        return max(0, self._count - self._warmup)

    @property
    def raw_count(self) -> int:
        """Total number of samples recorded, including warmup."""
        return self._count

    def _post_warmup(self) -> np.ndarray:
        return self._buffer[self._warmup : self._count]

    def _post_warmup_sorted(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self._post_warmup())
        return self._sorted

    def samples(self) -> List[float]:
        """Return post-warmup samples (a copy, in insertion order).

        Raises ``ValueError`` in sketch mode: the sketch retains a bounded
        summary, not the samples, and silently returning the summary items
        would misrepresent the stream.
        """
        if self._sketch is not None:
            raise ValueError("samples are not retained in sketch mode")
        return self._post_warmup().tolist()

    def footprint(self) -> int:
        """Floats currently retained: every post-warmup sample in exact
        mode, the bounded sketch summary in sketch mode."""
        if self._sketch is not None:
            return self._sketch.footprint()
        return max(0, self._count - self._warmup)

    def percentile(self, pct: float) -> float:
        """Return the ``pct``-th percentile of post-warmup samples.

        Exact in the default mode; within the sketch's documented
        rank-error bound in sketch mode.
        """
        if self._sketch is not None:
            return self._sketch.percentile(pct)
        return percentile_of_sorted(self._post_warmup_sorted(), pct)

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
        """Mean of post-warmup samples (exact in both modes)."""
        if self._sketch is not None:
            if self._sketch.count == 0:
                raise ValueError("no samples recorded after warmup")
            return self._sketch.mean()
        post = self._post_warmup()
        if post.shape[0] == 0:
            raise ValueError("no samples recorded after warmup")
        return float(np.mean(post))


class StreamingStats:
    """Constant-space running count/mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen; raises if empty."""
        if not self._count:
            raise ValueError("no samples recorded")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen; raises if empty."""
        if not self._count:
            raise ValueError("no samples recorded")
        return self._max

    @property
    def total(self) -> float:
        """Sum of samples."""
        return self._mean * self._count
