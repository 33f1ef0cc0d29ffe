"""Generated traces carry rows: no ``Query`` is built unless one is read.

``LoadGenerator.generate`` and ``generate_diurnal_trace`` return a
:class:`~repro.queries.query.QueryTrace` over ``(query_id, arrival_time,
size)`` rows, and the simulators read those rows as they are.  These tests
pin the two halves of that contract: a capacity evaluation builds no
``Query`` (and still draws its stream through exactly one ``generate``
call), and the rows equal the record-by-record construction they replace.
"""

import math
import pickle
from collections.abc import Hashable
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import build_engine_pair
from repro.faults import CrashWindow, FaultPlan, NodeFaultSchedule, RetryPolicy
from repro.queries.arrival import (
    ArrivalProcess,
    FixedArrival,
    PoissonArrival,
    UniformJitterArrival,
)
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query, QueryTrace, arrival_rows, query_row
from repro.queries.size_dist import ProductionQuerySizes
from repro.queries.trace import DiurnalPattern, generate_diurnal_trace
from repro.runtime.capacity import CapacitySearch, _evaluate_rate
from repro.serving.cluster import homogeneous_fleet
from repro.serving.simulator import ServingConfig
from repro.utils.rng import RngFactory

SEARCH_KWARGS = dict(num_queries=300, iterations=3, max_queries=1500)


class PairedDescendingArrival(ArrivalProcess):
    """Arrival times that decrease, two queries at each instant."""

    def inter_arrival_times(self, count, rng=None):
        return np.full(count, self.mean_inter_arrival_s)

    def arrival_times(self, count, rng=None, start=0.0):
        return start + self.mean_inter_arrival_s * (np.arange(count)[::-1] // 2)


def parent_rows(generator, count, start_time=0.0):
    """The rows the record-building ``generate`` produced, sorted by time."""
    factory = RngFactory(generator.seed)
    times = generator.arrival.arrival_times(count, factory.child("arrivals"), start_time)
    sizes = generator.sizes.sample(count, factory.child("sizes"))
    return sorted(
        map(query_row, map(Query, range(count), times.tolist(), sizes.tolist())),
        key=itemgetter(1),
    )


def parent_diurnal_rows(base_rate_qps, duration_s, seed, time_step_s=60.0):
    """``generate_diurnal_trace`` built one ``Query`` per arrival, then sorted."""
    pattern = DiurnalPattern()
    sizes = ProductionQuerySizes()
    factory = RngFactory(seed)
    arrival_rng = factory.child("diurnal-arrivals")
    size_rng = factory.child("diurnal-sizes")
    queries = []
    window_start = 0.0
    while window_start < duration_s:
        window = min(time_step_s, duration_s - window_start)
        count = int(
            arrival_rng.poisson(base_rate_qps * pattern.rate_multiplier(window_start) * window)
        )
        if count > 0:
            offsets = np.sort(arrival_rng.uniform(0.0, window, size=count))
            times = (window_start + offsets).tolist()
            drawn = sizes.sample(count, size_rng).tolist()
            first = len(queries)
            queries.extend(map(Query, range(first, first + count), times, drawn))
        window_start += window
    return sorted(map(query_row, queries), key=itemgetter(1))


def hex_rows(rows):
    return [(query_id, float.hex(time), size) for query_id, time, size in rows]


@pytest.fixture(scope="module")
def searches():
    engines = build_engine_pair("dlrm-rmc1", "skylake", None)
    config = ServingConfig(batch_size=256, num_cores=8)
    fleet = homogeneous_fleet(engines, config, 3)
    plan = FaultPlan(
        nodes={
            0: NodeFaultSchedule(crashes=(CrashWindow(0.05, 0.2),)),
            2: NodeFaultSchedule(crashes=(CrashWindow(0.1, 0.3),)),
        }
    )
    return {
        "server": CapacitySearch.for_server(
            engines, config, 0.1, LoadGenerator(seed=7), **SEARCH_KWARGS
        ),
        "fleet": CapacitySearch.for_fleet(
            fleet, "least-outstanding", 0.1, LoadGenerator(seed=7), **SEARCH_KWARGS
        ),
        "faulted-fleet": CapacitySearch.for_fleet(
            fleet, "least-outstanding", 0.1, LoadGenerator(seed=7),
            fault_plan=plan, retry_policy=RetryPolicy(max_retries=2, hedge=True),
            **SEARCH_KWARGS,
        ),
    }


class TestCapacityEvaluationBuildsNoQuery:
    @pytest.mark.parametrize("kind", ["server", "fleet", "faulted-fleet"])
    @pytest.mark.parametrize("rate_qps", [400.0, 6000.0])
    def test_one_generate_call_and_no_query(self, searches, kind, rate_qps, monkeypatch):
        built = []
        init = Query.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        drawn = []
        generate = LoadGenerator.__dict__["generate"]

        def counting_generate(self, *args, **kwargs):
            trace = generate(self, *args, **kwargs)
            drawn.append(len(trace))
            return trace

        monkeypatch.setattr(Query, "__init__", counting_init)
        monkeypatch.setattr(LoadGenerator, "generate", counting_generate)
        result = _evaluate_rate(searches[kind], rate_qps)
        assert result is not None
        assert built == []
        # One draw per evaluation: perfbench cuts its capacity-sweep windows
        # at each ``generate`` call.
        assert len(drawn) == 1 and drawn[0] > 0
        # The counter does see records built by reading the trace.
        assert len(LoadGenerator(seed=7).generate(5).queries) == 5
        assert len(built) == 5


arrivals = st.sampled_from(
    [PoissonArrival, FixedArrival, UniformJitterArrival, PairedDescendingArrival]
)


class TestGeneratedRowsEqualRecordConstruction:
    @settings(max_examples=60, deadline=None)
    @given(
        process=arrivals,
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 400),
        rate_qps=st.floats(0.5, 1e5),
        start_time=st.sampled_from([0.0, 2.5]),
    )
    def test_rows_match(self, process, seed, count, rate_qps, start_time):
        generator = LoadGenerator(arrival=process(rate_qps), seed=seed)
        trace = generator.generate(count, start_time)
        expected = parent_rows(generator, count, start_time)
        assert arrival_rows(trace) == expected
        assert [query_row(query) for query in trace] == expected
        assert trace == QueryTrace(map(Query, *zip(*expected)))

    def test_decreasing_times_come_back_sorted_and_stable(self):
        trace = LoadGenerator(arrival=PairedDescendingArrival(10.0), seed=0).generate(5)
        assert [(q.query_id, q.arrival_time) for q in trace] == [
            (3, 0.0), (4, 0.0), (1, 0.1), (2, 0.1), (0, 0.2),
        ]

    def test_bad_arrivals_raise_query_errors_from_generate(self):
        with pytest.raises(ValueError, match="arrival_time must be >= 0"):
            LoadGenerator(seed=1).generate(10, start_time=-5.0)
        with pytest.raises(ValueError, match="arrival_time must be finite"):
            LoadGenerator(seed=1).generate(10, start_time=math.inf)

    @pytest.mark.parametrize("seed", range(4))
    def test_diurnal_rows_equal_parent_bit_for_bit(self, seed):
        trace = generate_diurnal_trace(60.0, 200.0, seed=seed, time_step_s=13.0)
        assert len(trace) > 1000
        assert hex_rows(arrival_rows(trace)) == hex_rows(
            parent_diurnal_rows(60.0, 200.0, seed, time_step_s=13.0)
        )


class TestTraceReadsAsQueries:
    def test_pickle_round_trip(self):
        trace = LoadGenerator(seed=3).generate(50)
        copy = pickle.loads(pickle.dumps(trace))
        assert type(copy) is QueryTrace
        assert copy == trace
        assert arrival_rows(copy) == arrival_rows(trace)

    def test_indexing_and_slicing(self):
        trace = LoadGenerator(seed=3).generate(6)
        records = list(trace)
        assert trace[0] == records[0] and trace[-1] == records[-1]
        head = trace[1:4]
        assert type(head) is list and head == records[1:4]
        assert all(type(query) is Query for query in head)
        # Each read builds a fresh record.
        assert trace[0] is not trace[0]

    def test_equality_with_traces_lists_and_tuples(self):
        trace = LoadGenerator(seed=3).generate(20)
        records = trace.queries
        assert trace == records and records == trace
        assert trace == tuple(records)
        assert trace == QueryTrace(records)
        assert trace != records[:-1]
        assert trace != LoadGenerator(seed=4).generate(20)
        assert trace != "not a trace"
        assert not isinstance(trace, Hashable)

    def test_until_keeps_the_arrivals_up_to_a_time(self):
        generator = LoadGenerator(seed=3).with_rate(200.0)
        trace = generator.generate(400)
        cutoff = trace[99].arrival_time
        assert trace.until(cutoff) == trace[:100]
        assert len(generator.generate_for_duration(1.0)) == sum(
            1 for query in generator.generate(266) if query.arrival_time <= 1.0
        )

    def test_rows_are_a_new_list(self):
        trace = LoadGenerator(seed=3).generate(10)
        rows = arrival_rows(trace)
        rows.clear()
        assert len(trace) == len(arrival_rows(trace)) == 10
