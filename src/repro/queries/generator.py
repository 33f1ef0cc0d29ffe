"""Recommendation inference load generator.

Combines an arrival process with a query-size distribution to produce a
stream of :class:`~repro.queries.query.Query` records, mirroring the load
generator inside DeepRecInfra (Fig. 8): arrival rate and working-set size are
configured independently, and both default to the production-representative
choices (Poisson arrivals, heavy-tail sizes).  :meth:`LoadGenerator.generate`
returns a :class:`~repro.queries.query.QueryTrace` holding the drawn
``(query_id, arrival_time, size)`` rows, so a simulator run over it (a
capacity evaluation, say) builds no ``Query`` at all.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.queries.arrival import ArrivalProcess, PoissonArrival
from repro.queries.query import QueryStream, QueryTrace
from repro.queries.size_dist import ProductionQuerySizes, QuerySizeDistribution
from repro.utils.rng import RngFactory
from repro.utils.validation import check_positive


class LoadGenerator:
    """Generates reproducible query streams for the serving simulator."""

    def __init__(
        self,
        arrival: Optional[ArrivalProcess] = None,
        sizes: Optional[QuerySizeDistribution] = None,
        seed: Optional[int] = None,
    ) -> None:
        self._arrival = arrival if arrival is not None else PoissonArrival(rate_qps=100.0)
        self._sizes = sizes if sizes is not None else ProductionQuerySizes()
        self._rng_factory = RngFactory(seed)

    @property
    def arrival(self) -> ArrivalProcess:
        """The configured arrival process."""
        return self._arrival

    @property
    def sizes(self) -> QuerySizeDistribution:
        """The configured query-size distribution."""
        return self._sizes

    @property
    def seed(self) -> Optional[int]:
        """The seed this generator's reproducible streams derive from."""
        return self._rng_factory.seed

    def with_rate(self, rate_qps: float) -> "LoadGenerator":
        """Return a new generator identical to this one but at a different rate."""
        check_positive("rate_qps", rate_qps)
        return LoadGenerator(
            arrival=self._arrival.with_rate(rate_qps),
            sizes=self._sizes,
            seed=self._rng_factory.seed,
        )

    def generate(self, num_queries: int, start_time: float = 0.0) -> QueryTrace:
        """Generate ``num_queries`` queries starting at ``start_time``.

        Query ``i`` is the ``i``-th drawn arrival; the trace holds them in
        arrival order, as rows, and builds a ``Query`` only when one is read.
        """
        check_positive("num_queries", num_queries)
        arrival_rng = self._rng_factory.child("arrivals")
        size_rng = self._rng_factory.child("sizes")
        arrival_times = self._arrival.arrival_times(num_queries, arrival_rng, start_time)
        sizes = self._sizes.sample(num_queries, size_rng)
        return QueryTrace.from_columns(arrival_times, sizes)

    def iter_queries(
        self, num_queries: int, start_time: float = 0.0, chunk_queries: int = 65536
    ) -> QueryStream:
        """``num_queries`` queries as a single-pass, chunked :class:`QueryStream`.

        Streaming counterpart of :meth:`generate` for traces too large to
        materialise: at most one ``chunk_queries``-sized numpy chunk is alive
        at a time, and queries come in arrival order with sequential ids,
        satisfying the
        :meth:`repro.serving.cluster.ClusterSimulator.run_stream` contract.

        The stream draws from its own RNG children (``chunked-arrivals`` /
        ``chunked-sizes``): sizes are sampled per chunk (a different draw
        order than :meth:`generate`'s single pass) and arrival cumulative
        sums restart per chunk, so for a given seed this is a distinct,
        schema-versioned sequence — deliberately not bit-identical to
        :meth:`generate`, and regression-pinned in
        ``tests/test_queries_generator_trace.py``.
        """
        check_positive("num_queries", num_queries)

        def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
            arrival_rng = self._rng_factory.child("chunked-arrivals")
            size_rng = self._rng_factory.child("chunked-sizes")
            for times in self._arrival.arrival_time_chunks(
                num_queries, arrival_rng, start_time, chunk_queries
            ):
                yield times, self._sizes.sample(int(times.size), size_rng)

        return QueryStream(chunks)

    def generate_for_duration(
        self, duration_s: float, start_time: float = 0.0, max_queries: int = 2_000_000
    ) -> QueryTrace:
        """Generate queries until ``duration_s`` of simulated time has elapsed."""
        check_positive("duration_s", duration_s)
        expected = int(np.ceil(self._arrival.rate_qps * duration_s * 1.25)) + 16
        expected = min(expected, max_queries)
        return self.generate(expected, start_time).until(start_time + duration_s)
