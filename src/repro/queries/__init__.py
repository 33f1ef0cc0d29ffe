"""Real-time query serving: arrival processes, size distributions, load generation, traces."""

from repro.queries.arrival import (
    ArrivalProcess,
    FixedArrival,
    PoissonArrival,
    UniformJitterArrival,
    get_arrival_process,
)
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query, QueryStream, QueryTrace
from repro.queries.size_dist import (
    MAX_QUERY_SIZE,
    FixedQuerySizes,
    LognormalQuerySizes,
    NormalQuerySizes,
    ProductionQuerySizes,
    QuerySizeDistribution,
    get_size_distribution,
    work_share_above_percentile,
)
from repro.queries.trace import (
    TRACE_SCHEMA_VERSION,
    DiurnalPattern,
    count_diurnal_queries,
    diurnal_trace_chunks,
    generate_diurnal_trace,
    iter_diurnal_trace,
)

__all__ = [
    "ArrivalProcess",
    "FixedArrival",
    "PoissonArrival",
    "UniformJitterArrival",
    "get_arrival_process",
    "LoadGenerator",
    "Query",
    "QueryStream",
    "MAX_QUERY_SIZE",
    "FixedQuerySizes",
    "LognormalQuerySizes",
    "NormalQuerySizes",
    "ProductionQuerySizes",
    "QuerySizeDistribution",
    "get_size_distribution",
    "work_share_above_percentile",
    "TRACE_SCHEMA_VERSION",
    "DiurnalPattern",
    "QueryTrace",
    "count_diurnal_queries",
    "diurnal_trace_chunks",
    "generate_diurnal_trace",
    "iter_diurnal_trace",
]
