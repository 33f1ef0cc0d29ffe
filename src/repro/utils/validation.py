"""Small argument-validation helpers shared across the library.

These raise ``ValueError`` with a consistent message format so call sites can
validate constructor arguments in one line each.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


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
