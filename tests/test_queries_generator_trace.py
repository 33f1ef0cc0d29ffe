"""Tests for the load generator and query traces."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from repro.queries.arrival import FixedArrival, PoissonArrival
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query, QueryStream, query_row
from repro.queries.size_dist import FixedQuerySizes
from repro.queries.trace import (
    TRACE_SCHEMA_VERSION,
    DiurnalPattern,
    QueryTrace,
    count_diurnal_queries,
    diurnal_trace_chunks,
    generate_diurnal_trace,
    iter_diurnal_trace,
)


#: The frozen dataclass ``Query`` used to be; its ``repr`` is the contract.
_DataclassQuery = dataclasses.make_dataclass(
    "Query", [("query_id", int), ("arrival_time", float), ("size", int)], frozen=True
)


class TestQuery:
    def test_valid_query(self):
        query = Query(query_id=3, arrival_time=1.5, size=100)
        assert query.size == 100

    def test_positional_and_keyword_construction_agree(self):
        positional = Query(3, 1.5, 100)
        keyword = Query(size=100, arrival_time=1.5, query_id=3)
        assert (positional.query_id, positional.arrival_time, positional.size) == (
            3,
            1.5,
            100,
        )
        assert positional == keyword

    def test_equality_and_hash_follow_the_fields(self):
        a = Query(7, 0.25, 16)
        b = Query(7, 0.25, 16)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)  # reprolint: disable=RL001 -- in-process hash contract under test
        assert len({a, b}) == 1
        assert a != Query(8, 0.25, 16)
        assert a != Query(7, 0.5, 16)
        assert a != Query(7, 0.25, 32)

    def test_unequal_to_a_plain_tuple(self):
        query = Query(7, 0.25, 16)
        assert query != (7, 0.25, 16)
        assert (7, 0.25, 16) != query

    @pytest.mark.parametrize(
        "fields", [(0, 0.0, 1), (1, 2.5, 32), (12, 0.1, 7), (3, 1e-300, 1), (4, 12345.678, 99)]
    )
    def test_repr_matches_the_dataclass_format(self, fields):
        assert repr(Query(*fields)) == repr(_DataclassQuery(*fields))

    def test_repr_text(self):
        assert repr(Query(1, 2.5, 32)) == "Query(query_id=1, arrival_time=2.5, size=32)"

    def test_pickle_round_trip(self):
        queries = [Query(0, 0.0, 1), Query(5, 3.75, 64)]
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(queries, protocol=protocol))
            assert restored == queries
            assert all(type(query) is Query for query in restored)

    def test_invalid_query(self):
        with pytest.raises(ValueError, match="size must be > 0"):
            Query(query_id=0, arrival_time=0.0, size=0)
        with pytest.raises(ValueError, match="query_id must be >= 0"):
            Query(query_id=-1, arrival_time=0.0, size=1)
        with pytest.raises(ValueError, match="arrival_time must be >= 0"):
            Query(query_id=0, arrival_time=-1.0, size=1)

    @pytest.mark.parametrize("arrival_time", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_time_rejected(self, arrival_time):
        with pytest.raises(ValueError, match="arrival_time must be"):
            Query(0, arrival_time, 1)


class TestLoadGenerator:
    def test_generates_requested_count(self):
        queries = LoadGenerator(seed=0).generate(50)
        assert len(queries) == 50

    def test_arrival_times_increasing_and_ids_sequential(self):
        queries = LoadGenerator(seed=0).generate(100)
        times = [q.arrival_time for q in queries]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert [q.query_id for q in queries] == list(range(100))

    def test_reproducible_with_seed(self):
        a = LoadGenerator(seed=9).generate(20)
        b = LoadGenerator(seed=9).generate(20)
        assert [(q.arrival_time, q.size) for q in a] == [
            (q.arrival_time, q.size) for q in b
        ]

    def test_with_rate_changes_density_not_sizes(self):
        slow = LoadGenerator(arrival=PoissonArrival(10.0), seed=4)
        fast = slow.with_rate(1000.0)
        slow_queries = slow.generate(200)
        fast_queries = fast.generate(200)
        assert fast_queries[-1].arrival_time < slow_queries[-1].arrival_time
        assert [q.size for q in slow_queries] == [q.size for q in fast_queries]

    def test_custom_distributions_respected(self):
        generator = LoadGenerator(
            arrival=FixedArrival(100.0), sizes=FixedQuerySizes(32), seed=0
        )
        queries = generator.generate(10)
        assert all(q.size == 32 for q in queries)
        gaps = np.diff([q.arrival_time for q in queries])
        assert np.allclose(gaps, 0.01)

    def test_generate_for_duration(self):
        generator = LoadGenerator(arrival=FixedArrival(100.0), seed=0)
        queries = generator.generate_for_duration(0.5)
        assert queries
        assert queries[-1].arrival_time <= 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            LoadGenerator(seed=0).generate(0)
        with pytest.raises(ValueError):
            LoadGenerator(seed=0).with_rate(0.0)


class TestDiurnalPattern:
    def test_multiplier_oscillates_around_one(self):
        pattern = DiurnalPattern(amplitude=0.4, period_s=100.0)
        values = [pattern.rate_multiplier(t) for t in np.linspace(0, 100, 200)]
        assert max(values) == pytest.approx(1.4, abs=0.02)
        assert min(values) == pytest.approx(0.6, abs=0.02)
        assert np.mean(values) == pytest.approx(1.0, abs=0.05)

    def test_zero_amplitude_constant(self):
        pattern = DiurnalPattern(amplitude=0.0, period_s=10.0)
        assert pattern.rate_multiplier(3.0) == pytest.approx(1.0)

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            DiurnalPattern(amplitude=1.0)


class TestQueryTrace:
    def test_sorts_queries_by_arrival(self):
        trace = QueryTrace(
            [Query(0, 2.0, 10), Query(1, 1.0, 20), Query(2, 3.0, 30)]
        )
        assert [q.arrival_time for q in trace] == [1.0, 2.0, 3.0]

    def test_duration_rate_and_items(self):
        trace = QueryTrace([Query(i, float(i), 10) for i in range(11)])
        assert trace.duration_s == pytest.approx(10.0)
        assert trace.mean_rate_qps == pytest.approx(1.0)
        assert trace.total_items() == 110

    def test_save_and_load_roundtrip(self, tmp_path):
        trace = QueryTrace([Query(i, i * 0.5, 10 + i) for i in range(5)])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = QueryTrace.load(path)
        assert len(loaded) == 5
        assert [(q.query_id, q.arrival_time, q.size) for q in loaded] == [
            (q.query_id, q.arrival_time, q.size) for q in trace
        ]

    def test_empty_trace_properties(self):
        trace = QueryTrace([])
        assert len(trace) == 0
        assert trace.duration_s == 0.0
        assert trace.mean_rate_qps == 0.0


class TestDiurnalTrace:
    def test_trace_spans_duration(self):
        trace = generate_diurnal_trace(base_rate_qps=100.0, duration_s=30.0, seed=0)
        assert trace.duration_s <= 30.0
        assert len(trace) > 0

    def test_rate_roughly_matches_base(self):
        flat = DiurnalPattern(amplitude=0.0, period_s=60.0)
        trace = generate_diurnal_trace(
            base_rate_qps=200.0, duration_s=60.0, pattern=flat, seed=1
        )
        assert trace.mean_rate_qps == pytest.approx(200.0, rel=0.2)

    def test_traffic_denser_at_peak_than_trough(self):
        pattern = DiurnalPattern(amplitude=0.8, period_s=100.0, phase=0.0)
        trace = generate_diurnal_trace(
            base_rate_qps=300.0, duration_s=100.0, pattern=pattern, seed=2,
            time_step_s=5.0,
        )
        times = np.array([q.arrival_time for q in trace])
        # Peak of sin(2*pi*t/100) is at t=25, trough at t=75.
        peak_count = np.sum((times >= 15) & (times < 35))
        trough_count = np.sum((times >= 65) & (times < 85))
        assert peak_count > trough_count

    def test_reproducible(self):
        a = generate_diurnal_trace(50.0, 20.0, seed=3)
        b = generate_diurnal_trace(50.0, 20.0, seed=3)
        assert len(a) == len(b)
        assert [q.size for q in a] == [q.size for q in b]


class TestBatchTracePins:
    def test_generate_diurnal_trace_is_regression_pinned(self):
        # The vectorized synthesis must keep the seeded draw order of the
        # original per-query loop: these values are the old path's, bit
        # for bit.
        trace = generate_diurnal_trace(50.0, 20.0, seed=3)
        assert len(trace) == 655
        head = list(trace)[:3]
        assert [q.arrival_time for q in head] == [
            0.011230055168693909,
            0.014067652303799694,
            0.035604363620640456,
        ]
        assert [q.size for q in head] == [105, 77, 174]


class TestChunkedSynthesis:
    """The streamed trace path: schema-versioned, O(chunk) memory."""

    def test_schema_version_pinned(self):
        assert TRACE_SCHEMA_VERSION == 1

    def test_stream_is_regression_pinned(self):
        # Schema v1 of the chunked diurnal stream: these exact values are
        # the compatibility contract for recorded large-trace runs.
        head = list(itertools.islice(iter_diurnal_trace(50.0, 120.0, seed=3), 4))
        assert [q.query_id for q in head] == [0, 1, 2, 3]
        assert [q.arrival_time for q in head] == [
            0.04863467956022882,
            0.05302036436917179,
            0.07489096006389806,
            0.07660684675535157,
        ]
        assert [q.size for q in head] == [39, 279, 24, 153]

    def test_count_matches_stream_without_materialising(self):
        count = count_diurnal_queries(50.0, 120.0, seed=3)
        assert count == 3576  # pinned with the schema version
        assert count == sum(1 for _ in iter_diurnal_trace(50.0, 120.0, seed=3))

    def test_stream_sorted_with_sequential_ids(self):
        previous_time = -1.0
        for index, query in enumerate(iter_diurnal_trace(80.0, 90.0, seed=1)):
            assert query.query_id == index
            assert query.arrival_time >= previous_time
            assert query.arrival_time < 90.0
            previous_time = query.arrival_time

    def test_chunks_follow_the_diurnal_law(self):
        # Thinning must modulate density: the peak window of the sinusoid
        # carries more accepted arrivals than the trough window.
        pattern = DiurnalPattern(period_s=100.0, amplitude=0.8, phase=0.0)
        times = np.concatenate(
            [chunk for chunk, _ in diurnal_trace_chunks(
                100.0, 100.0, pattern=pattern, seed=2
            )]
        )
        peak = np.sum((times >= 15) & (times < 35))
        trough = np.sum((times >= 65) & (times < 85))
        assert peak > trough

    def test_chunk_sizes_align_with_arrivals(self):
        for arrivals, sizes in diurnal_trace_chunks(60.0, 120.0, seed=4):
            assert arrivals.size == sizes.size
            assert arrivals.size > 0
            assert np.all(sizes >= 1)


class TestArrivalTimeChunks:
    def test_chunks_are_regression_pinned(self):
        times = np.concatenate(
            list(PoissonArrival(rate_qps=100.0).arrival_time_chunks(
                10, rng=7, chunk_queries=4
            ))
        )
        assert times.size == 10
        assert times[0] == 0.007075292557919215
        assert times[1] == 0.017327326040868264

    def test_yields_exactly_count_in_bounded_chunks(self):
        chunks = list(PoissonArrival(rate_qps=50.0).arrival_time_chunks(
            1000, rng=1, chunk_queries=64
        ))
        assert all(chunk.size <= 64 for chunk in chunks)
        assert sum(chunk.size for chunk in chunks) == 1000
        merged = np.concatenate(chunks)
        assert np.all(np.diff(merged) >= 0)

    def test_chunks_continue_one_generator_stream(self):
        # Different chunk granularity re-associates the cumulative sum but
        # draws the same gap sequence: times agree to float tolerance.
        arrival = PoissonArrival(rate_qps=200.0)
        coarse = np.concatenate(list(arrival.arrival_time_chunks(500, rng=3)))
        fine = np.concatenate(
            list(arrival.arrival_time_chunks(500, rng=3, chunk_queries=17))
        )
        np.testing.assert_allclose(fine, coarse, rtol=1e-12, atol=1e-12)


class TestQueryStreamRows:
    """A QueryStream's rows are its records' fields, checked like Query."""

    @staticmethod
    def _streams():
        yield lambda: iter_diurnal_trace(80.0, 90.0, seed=1, time_step_s=7.0)
        generator = LoadGenerator(arrival=PoissonArrival(rate_qps=300.0), seed=4)
        yield lambda: generator.iter_queries(2500, chunk_queries=600)

    def test_records_equal_rows_for_both_synthesizers(self):
        for make in self._streams():
            rows = list(make().rows())
            assert len(rows) > 1000
            assert [query_row(query) for query in make()] == rows
            assert all(type(row) is tuple for row in rows)

    def test_rows_reject_what_query_rejects(self):
        generator = LoadGenerator(arrival=PoissonArrival(rate_qps=200.0), seed=4)
        with pytest.raises(ValueError, match="arrival_time"):
            list(generator.iter_queries(10, start_time=-5.0))
        with pytest.raises(ValueError, match="arrival_time"):
            list(generator.iter_queries(10, start_time=-5.0).rows())

    def test_rows_check_every_chunk(self):
        def chunks():
            yield np.array([0.5, 1.0]), np.array([3, 4])
            yield np.array([1.5, np.inf]), np.array([5, 6])

        rows = QueryStream(chunks).rows()
        assert next(rows) == (0, 0.5, 3)
        with pytest.raises(ValueError, match="finite"):
            list(rows)
        with pytest.raises(ValueError, match="size"):
            list(QueryStream(lambda: [(np.array([0.5]), np.array([0]))]).rows())

    def test_single_pass(self):
        stream = iter_diurnal_trace(50.0, 10.0, seed=3)
        assert sum(1 for _ in stream) > 0
        with pytest.raises(ValueError, match="once"):
            stream.rows()

    def test_chunk_source_is_looked_up_when_reading_starts(self, monkeypatch):
        import repro.queries.trace as trace_module

        stream = iter_diurnal_trace(50.0, 10.0, seed=3)
        drawn = []
        chunks = trace_module.diurnal_trace_chunks

        def recording(*args, **kwargs):
            for chunk in chunks(*args, **kwargs):
                drawn.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(trace_module, "diurnal_trace_chunks", recording)
        assert sum(drawn) == 0
        assert len(list(stream.rows())) == sum(drawn) > 0


class TestIterQueries:
    def test_stream_is_regression_pinned(self):
        generator = LoadGenerator(arrival=PoissonArrival(rate_qps=200.0), seed=4)
        head = list(itertools.islice(generator.iter_queries(6), 6))
        assert [q.query_id for q in head] == [0, 1, 2, 3, 4, 5]
        assert head[0].arrival_time == 0.0024670736035535324
        assert head[1].arrival_time == 0.003912067821207477
        assert [q.size for q in head] == [44, 90, 220, 815, 38, 55]

    def test_satisfies_run_stream_contract(self):
        generator = LoadGenerator(arrival=PoissonArrival(rate_qps=900.0), seed=11)
        previous_time = -1.0
        count = 0
        for index, query in enumerate(generator.iter_queries(2000)):
            assert query.query_id == index
            assert query.arrival_time >= previous_time
            previous_time = query.arrival_time
            count += 1
        assert count == 2000
