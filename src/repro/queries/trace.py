"""Query traces: serialisation, diurnal traffic modulation, chunked synthesis.

The production study of Fig. 13 runs over 24 hours of live traffic whose
arrival rate follows the usual diurnal pattern.  :class:`DiurnalPattern`
modulates a base arrival rate over the day, and
:class:`~repro.queries.query.QueryTrace` (re-exported here) is a
serialisable container so traces can be recorded once and replayed across
experiments (or shared between the datacenter-cluster simulation and
single-node runs).

Two synthesis paths produce diurnal traces:

* :func:`generate_diurnal_trace` — the original per-window homogeneous
  Poisson construction, materialised as a :class:`QueryTrace`.  Its seeded
  output is **bit-identical** to every earlier release (the per-window RNG
  draw order is preserved); the trace holds rows zipped from the drawn
  arrays and builds a ``Query`` only when one is read.
* :func:`iter_diurnal_trace` / :func:`count_diurnal_queries` — the chunked
  streaming path for ≥10⁶-query traces: arrivals are synthesised per time
  slice by *thinning* a homogeneous Poisson process at the diurnal peak
  rate (candidates kept with probability ``rate(t) / rate_max``, the exact
  inhomogeneous-Poisson construction), in numpy chunks, so a 10⁷-query
  trace never materialises a per-query object list.  This stream draws
  from its own schema-versioned RNG children
  (:data:`TRACE_SCHEMA_VERSION`), is deliberately *not* bit-identical to
  :func:`generate_diurnal_trace`, and is regression-pinned by
  ``tests/test_queries_generator_trace.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.queries.arrival import PoissonArrival
from repro.queries.query import QueryStream, QueryTrace
from repro.queries.size_dist import ProductionQuerySizes, QuerySizeDistribution
from repro.utils.rng import RngFactory
from repro.utils.validation import check_non_negative, check_positive

#: Schema version of the chunked thinning synthesis stream.  Folded into the
#: RNG child names (``diurnal-v1-arrivals`` / ``diurnal-v1-sizes``), so a
#: change to the synthesis algorithm bumps the version and can never silently
#: replay old seeds onto a different sequence.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DiurnalPattern:
    """Sinusoidal day/night arrival-rate modulation.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t/period - phase)))``

    Attributes
    ----------
    amplitude:
        Peak-to-mean swing (0.4 means peak traffic is 40 % above the mean).
    period_s:
        Length of one traffic cycle (24 h by default).
    phase:
        Fraction of the period by which the peak is shifted.
    """

    amplitude: float = 0.4
    period_s: float = 24 * 3600.0
    phase: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        check_positive("period_s", self.period_s)

    def rate_multiplier(self, time_s: float) -> float:
        """Traffic multiplier (> 0) at absolute time ``time_s``."""
        check_non_negative("time_s", time_s)
        angle = 2.0 * math.pi * (time_s / self.period_s - self.phase)
        return 1.0 + self.amplitude * math.sin(angle)


def generate_diurnal_trace(
    base_rate_qps: float,
    duration_s: float,
    pattern: Optional[DiurnalPattern] = None,
    sizes: Optional[QuerySizeDistribution] = None,
    seed: Optional[int] = None,
    time_step_s: float = 60.0,
) -> QueryTrace:
    """Generate a trace whose arrival rate follows a diurnal pattern.

    The duration is split into ``time_step_s`` windows; each window draws
    Poisson arrivals at the diurnally modulated rate.  Used by the Fig. 13
    production-cluster experiment.

    The seeded output is bit-identical to earlier releases: the per-window
    RNG draw order (poisson count, then sorted uniform offsets, then sizes)
    is unchanged; the concatenated arrays become the trace's rows in one
    vectorised pass (:meth:`QueryTrace.from_columns`), with no ``Query``
    built until one is read.
    """
    check_positive("base_rate_qps", base_rate_qps)
    check_positive("duration_s", duration_s)
    check_positive("time_step_s", time_step_s)
    pattern = pattern if pattern is not None else DiurnalPattern()
    sizes = sizes if sizes is not None else ProductionQuerySizes()
    factory = RngFactory(seed)
    arrival_rng = factory.child("diurnal-arrivals")
    size_rng = factory.child("diurnal-sizes")

    arrival_blocks: List[np.ndarray] = []
    size_blocks: List[np.ndarray] = []
    window_start = 0.0
    while window_start < duration_s:
        window = min(time_step_s, duration_s - window_start)
        rate = base_rate_qps * pattern.rate_multiplier(window_start)
        expected = rate * window
        count = int(arrival_rng.poisson(expected))
        if count > 0:
            offsets = np.sort(arrival_rng.uniform(0.0, window, size=count))
            arrival_blocks.append(window_start + offsets)
            size_blocks.append(sizes.sample(count, size_rng))
        window_start += window
    if not arrival_blocks:
        return QueryTrace([])
    return QueryTrace.from_columns(
        np.concatenate(arrival_blocks), np.concatenate(size_blocks)
    )


def _diurnal_arrival_chunks(
    base_rate_qps: float,
    pattern: DiurnalPattern,
    arrival_rng: np.random.Generator,
    duration_s: float,
    time_step_s: float,
) -> Iterator[np.ndarray]:
    """Accepted arrival timestamps of the v1 thinning stream, per time slice.

    Each slice draws a homogeneous Poisson candidate set at the diurnal peak
    rate ``base * (1 + amplitude)`` and keeps candidates with probability
    ``rate(t) / rate_max`` evaluated at the candidate's own timestamp, which
    is the exact inhomogeneous-Poisson thinning construction — the slice
    length only controls chunk granularity, not the sampled law.
    """
    rate_max = base_rate_qps * (1.0 + pattern.amplitude)
    window_start = 0.0
    while window_start < duration_s:
        window = min(time_step_s, duration_s - window_start)
        candidates = int(arrival_rng.poisson(rate_max * window))
        if candidates > 0:
            times = np.sort(
                arrival_rng.uniform(window_start, window_start + window, size=candidates)
            )
            multiplier = 1.0 + pattern.amplitude * np.sin(
                2.0 * math.pi * (times / pattern.period_s - pattern.phase)
            )
            keep = arrival_rng.random(candidates) * (1.0 + pattern.amplitude) < multiplier
            accepted = times[keep]
            if accepted.size:
                yield accepted
        window_start += window


def diurnal_trace_chunks(
    base_rate_qps: float,
    duration_s: float,
    pattern: Optional[DiurnalPattern] = None,
    sizes: Optional[QuerySizeDistribution] = None,
    seed: Optional[int] = None,
    time_step_s: float = 60.0,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Chunked diurnal synthesis: yields ``(arrival_times, sizes)`` arrays.

    The memory-bounded core of :func:`iter_diurnal_trace`: each yielded pair
    covers one ``time_step_s`` slice (float64 timestamps in arrival order and
    int64 sizes), so peak memory is proportional to the per-slice arrival
    count, never the trace length.  The stream is schema-versioned
    (:data:`TRACE_SCHEMA_VERSION`): it draws from the RNG children
    ``diurnal-v1-arrivals`` / ``diurnal-v1-sizes`` and is not bit-identical
    to :func:`generate_diurnal_trace`, which models each window as a
    homogeneous process at the window-start rate instead of thinning.
    """
    check_positive("base_rate_qps", base_rate_qps)
    check_positive("duration_s", duration_s)
    check_positive("time_step_s", time_step_s)
    pattern = pattern if pattern is not None else DiurnalPattern()
    sizes = sizes if sizes is not None else ProductionQuerySizes()
    factory = RngFactory(seed)
    arrival_rng = factory.child("diurnal-v1-arrivals")
    size_rng = factory.child("diurnal-v1-sizes")
    for times in _diurnal_arrival_chunks(
        base_rate_qps, pattern, arrival_rng, duration_s, time_step_s
    ):
        yield times, sizes.sample(int(times.size), size_rng)


def count_diurnal_queries(
    base_rate_qps: float,
    duration_s: float,
    pattern: Optional[DiurnalPattern] = None,
    seed: Optional[int] = None,
    time_step_s: float = 60.0,
) -> int:
    """Number of queries :func:`iter_diurnal_trace` will yield for these args.

    Replays only the arrival stream (sizes draw from a separate RNG child,
    so skipping them cannot perturb the count), which makes the two-pass
    ``count`` + ``iter`` pattern cheap enough for
    :meth:`repro.serving.cluster.ClusterSimulator.run_stream`, whose
    contract requires the query count up front.
    """
    check_positive("base_rate_qps", base_rate_qps)
    check_positive("duration_s", duration_s)
    check_positive("time_step_s", time_step_s)
    pattern = pattern if pattern is not None else DiurnalPattern()
    arrival_rng = RngFactory(seed).child("diurnal-v1-arrivals")
    return sum(
        int(times.size)
        for times in _diurnal_arrival_chunks(
            base_rate_qps, pattern, arrival_rng, duration_s, time_step_s
        )
    )


def iter_diurnal_trace(
    base_rate_qps: float,
    duration_s: float,
    pattern: Optional[DiurnalPattern] = None,
    sizes: Optional[QuerySizeDistribution] = None,
    seed: Optional[int] = None,
    time_step_s: float = 60.0,
) -> QueryStream:
    """A diurnal trace as a single-pass :class:`~repro.queries.query.QueryStream`.

    Queries arrive in time order (``query_id`` is the arrival index), so
    the stream satisfies the
    :meth:`repro.serving.cluster.ClusterSimulator.run_stream` contract
    directly (pair it with :func:`count_diurnal_queries` for the
    ``num_queries`` argument); ``run_stream`` reads its rows, so the run
    builds no per-query object.  Only one synthesis chunk is alive at a
    time.  See :func:`diurnal_trace_chunks` for the schema-versioning
    guarantees.
    """
    # The module-global lookup happens when reading starts, so a wrapper
    # installed over ``diurnal_trace_chunks`` sees every chunk as it is drawn.
    return QueryStream(
        lambda: diurnal_trace_chunks(
            base_rate_qps, duration_s, pattern, sizes, seed, time_step_s
        )
    )
