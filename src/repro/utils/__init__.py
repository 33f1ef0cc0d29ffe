"""Shared utilities: statistics, RNG management, unit helpers, text tables."""

from repro.utils.rng import RngFactory, derive_rng
from repro.utils.sketch import DEFAULT_K, RANK_ERROR_BOUND, QuantileSketch
from repro.utils.stats import (
    PercentileTracker,
    geometric_mean,
    max_relative_cdf_gap,
    percentile,
)
from repro.utils.tables import format_table
from repro.utils.units import (
    GB,
    KB,
    MB,
    bytes_to_gb,
    bytes_to_mb,
    ms_to_s,
    s_to_ms,
    s_to_us,
)
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RngFactory",
    "derive_rng",
    "DEFAULT_K",
    "RANK_ERROR_BOUND",
    "QuantileSketch",
    "PercentileTracker",
    "geometric_mean",
    "max_relative_cdf_gap",
    "percentile",
    "format_table",
    "KB",
    "MB",
    "GB",
    "bytes_to_gb",
    "bytes_to_mb",
    "ms_to_s",
    "s_to_ms",
    "s_to_us",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
