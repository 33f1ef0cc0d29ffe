"""Small argument-validation helpers shared across the library.

These raise ``ValueError`` with a consistent message format so call sites can
validate constructor arguments in one line each.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Number = Union[int, float]

#: A batch (or query) size, or a float64 vector of sizes priced in one call.
Batch = Union[int, float, np.ndarray]


def check_positive(name: str, value: Number) -> Number:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Return ``value`` if >= 0, else raise ``ValueError`` (NaN included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: Number) -> Number:
    """Return ``value`` if in [0, 1], else raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: Number, low: Number, high: Number) -> Number:
    """Return ``value`` if in [low, high], else raise ``ValueError``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_batch(value: Batch, name: str = "batch_size") -> Union[float, np.ndarray]:
    """``value`` as a float, or a vector as float64; every entry must be >= 1.

    The pricing formulas take a batch (or query) size this way, so one
    formula prices a single batch or a whole latency-table column.  Call it
    before the value indexes anything: a latency table's entry 0 is NaN and
    entry -1 is its last one.
    """
    batch = np.asarray(value, dtype=np.float64)
    if not batch.min() >= 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return batch if batch.ndim else float(batch)
