"""Fixed-space streaming quantile sketch (KLL-style compactors).

``PercentileTracker`` buffers every latency sample, which is exactly right
for figure-sized runs (bit-identical percentiles, cheap re-sorts) and
exactly wrong for 10⁶–10⁷-query traces, where the sample buffer becomes the
peak-RSS driver.  :class:`QuantileSketch` is the opt-in alternative behind
``PercentileTracker(mode="sketch")``: a compactor hierarchy in the style of
the KLL sketch (Karnin, Lang, Liberty, FOCS 2016) with

* **bounded space**: level capacities decay geometrically (ratio 2/3) from
  ``k`` at the top, so retained items never exceed ``3k + 8·64`` floats
  regardless of stream length — with the default ``k`` that is a few
  thousand floats where the exact tracker would hold millions;
* **determinism**: compaction keeps alternating odd/even survivors via a
  per-level parity bit instead of coin flips, so the same input sequence
  always yields the same sketch (the repository's replay contract);
* **an exactness floor**: until the first compaction (streams of at most
  ``k`` samples) every item is retained at weight 1 and
  :meth:`percentile` reproduces ``numpy.percentile``'s linear
  interpolation bit for bit.  Count, sum (hence :meth:`mean`), minimum,
  and maximum are tracked exactly at any stream length.

Error bound
-----------
Each compaction of ``m`` items at weight ``w`` can displace a rank by at
most ``w``; with alternating parity the displacements at one level cancel
pairwise, and the geometric capacity schedule keeps the surviving error
dominated by the top levels.  For the default ``k = 400`` the test suite
(``tests/test_utils_sketch.py``) enforces a normalised rank error below
``RANK_ERROR_BOUND`` (1 % of the stream length) against the exact path on
adversarial streams — bimodal, heavy-tailed, constant, and sorted inputs —
and that bound is the contract consumers may rely on: a reported p95 is an
exact percentile of some rank in ``[94, 96]``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple, Union

import numpy as np

__all__ = ["DEFAULT_K", "RANK_ERROR_BOUND", "QuantileSketch"]

#: Default top-level capacity.  ~1.4k retained floats steady-state; the
#: property-tested rank-error bound below is calibrated for this value.
DEFAULT_K = 400

#: Normalised rank-error contract at ``DEFAULT_K``, enforced by the
#: hypothesis property tests: ``percentile(p)`` lies between the exact
#: ``p ± 100 * RANK_ERROR_BOUND`` percentiles of the stream.
RANK_ERROR_BOUND = 0.01

#: Smallest per-level buffer; below this, compacting buys nothing.
_MIN_LEVEL_CAPACITY = 8

#: Geometric decay of level capacities, top level down (KLL's c = 2/3).
_CAPACITY_DECAY = 2.0 / 3.0

#: Levels can never exceed this in practice: level ``L`` holds items of
#: weight ``2**L``, so 64 levels would need more samples than fit in an
#: int64 count.  Used only for the documented worst-case footprint bound.
_MAX_LEVELS = 64


class QuantileSketch:
    """Fixed-space quantile summary of a float stream.

    Parameters
    ----------
    k:
        Top-level compactor capacity.  Space grows linearly and error
        shrinks roughly linearly in ``k``; the default is calibrated so the
        property-tested rank error stays under :data:`RANK_ERROR_BOUND`.
    """

    __slots__ = ("_k", "_levels", "_parity", "_caps", "_count", "_sum", "_min", "_max")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 2 * _MIN_LEVEL_CAPACITY:
            raise ValueError(f"k must be >= {2 * _MIN_LEVEL_CAPACITY}, got {k}")
        self._k = k
        self._levels: List[List[float]] = [[]]
        self._parity: List[bool] = [False]
        # Per-level capacities; they change only when the level count does.
        self._caps: List[int] = [k]
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self._levels[0].append(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._levels[0]) >= self._caps[0]:
            self._compress()

    def extend(self, values: "Union[Iterable[float], np.ndarray]") -> None:
        """Record many samples.

        Produces the same retained levels as repeated :meth:`add` (block
        boundaries align with the level-0 capacity), so percentiles are
        identical; only the running sum may differ in the last ulp because
        blocks are summed pairwise.
        """
        if isinstance(values, np.ndarray):
            arr = values.astype(np.float64, copy=False)
        else:
            arr = np.asarray(list(values), dtype=np.float64)
        size = int(arr.size)
        if size == 0:
            return
        self._count += size
        self._sum += float(arr.sum())
        low = float(arr.min())
        high = float(arr.max())
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        pos = 0
        while pos < size:
            level0 = self._levels[0]
            room = max(1, self._caps[0] - len(level0))
            block = arr[pos : pos + room]
            level0.extend(block.tolist())
            pos += int(block.size)
            if len(self._levels[0]) >= self._caps[0]:
                self._compress()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """Exact number of samples recorded."""
        return self._count

    @property
    def minimum(self) -> float:
        """Exact smallest sample; raises on an empty sketch."""
        if not self._count:
            raise ValueError("no samples recorded")
        return self._min

    @property
    def maximum(self) -> float:
        """Exact largest sample; raises on an empty sketch."""
        if not self._count:
            raise ValueError("no samples recorded")
        return self._max

    def mean(self) -> float:
        """Exact mean (count and sum are tracked outside the compactors)."""
        if not self._count:
            raise ValueError("no samples recorded")
        return self._sum / self._count

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (0–100) of the stream.

        Uses ``numpy.percentile``-style linear interpolation over the
        weighted retained items: exact until the first compaction, within
        the documented rank-error bound after it.  The 0th and 100th
        percentiles are always exact (tracked min/max).
        """
        if self._count == 0:
            raise ValueError("cannot take a percentile of an empty sketch")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"pct must be in [0, 100], got {pct}")
        if pct == 0.0:  # reprolint: disable=RL007 -- exact sentinel: caller asked for the tracked-exact minimum
            return self._min
        if pct == 100.0:  # reprolint: disable=RL007 -- exact sentinel: caller asked for the tracked-exact maximum
            return self._max
        values, weights = self._flattened()
        rank = (pct / 100.0) * (self._count - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        cum = np.cumsum(weights)
        x_lo = float(values[int(np.searchsorted(cum, lo, side="right"))])
        x_hi = float(values[int(np.searchsorted(cum, hi, side="right"))])
        # numpy's lerp: switch forms at frac >= 0.5 so the pre-compaction
        # exactness floor reproduces np.percentile bit for bit.
        frac = rank - lo
        diff = x_hi - x_lo
        if frac >= 0.5:
            return x_hi - diff * (1.0 - frac)
        return x_lo + diff * frac

    def footprint(self) -> int:
        """Retained floats across all levels (the space actually held).

        Bounded by ``3k + 8 * 64`` for any stream length: capacities decay
        geometrically (sum < 3k) and the minimum-capacity floor can apply
        to at most :data:`_MAX_LEVELS` levels.
        """
        return sum(len(items) for items in self._levels)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(k={self._k}, count={self._count}, "
            f"levels={len(self._levels)}, footprint={self.footprint()})"
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _capacity(self, level: int) -> int:
        depth = len(self._levels) - 1 - level
        return max(_MIN_LEVEL_CAPACITY, math.ceil(self._k * _CAPACITY_DECAY**depth))

    def _refresh_caps(self) -> None:
        self._caps = [self._capacity(level) for level in range(len(self._levels))]

    def _compress(self) -> None:
        """Compact every over-capacity level until all are within bounds.

        Restarts from level 0 after each compaction because growing a new
        top level shrinks every lower level's capacity.  Terminates: each
        compaction strictly reduces the total retained item count.
        """
        level = 0
        levels = self._levels
        while level < len(levels):
            if len(levels[level]) >= self._caps[level]:
                self._compact(level)
                level = 0
            else:
                level += 1

    def _compact(self, level: int) -> None:
        """Halve one level: keep alternating survivors at double weight."""
        items = self._levels[level]
        items.sort()
        if level + 1 == len(self._levels):
            self._levels.append([])
            self._parity.append(False)
            self._refresh_caps()
        leftover: List[float] = []
        if len(items) % 2:
            # An odd item cannot split into weight-2w survivors; the max
            # stays behind at its own weight so total weight is preserved.
            leftover.append(items.pop())
        offset = 1 if self._parity[level] else 0
        self._parity[level] = not self._parity[level]
        self._levels[level + 1].extend(items[offset::2])
        self._levels[level] = leftover

    def _flattened(self) -> "Tuple[np.ndarray, np.ndarray]":
        """Retained ``(values, weights)`` sorted by value (stable)."""
        vals: List[np.ndarray] = []
        wts: List[np.ndarray] = []
        for level, items in enumerate(self._levels):
            if not items:
                continue
            vals.append(np.asarray(items, dtype=np.float64))
            wts.append(np.full(len(items), 1 << level, dtype=np.int64))
        values = np.concatenate(vals)
        weights = np.concatenate(wts)
        order = np.argsort(values, kind="stable")
        return values[order], weights[order]
