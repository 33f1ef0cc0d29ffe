"""Tests for crash-safe window checkpointing and load shedding.

The resilience contract: a service with a ``--checkpoint-dir`` journals
every observed window; after a crash it restores the journalled history
(without re-simulating it), fast-forwards the window manager past the
journalled stream position, and from then on reports **bit-identical**
cumulative measurements to a run that never crashed.  Load shedding
(``shed_above``) bounds the per-batch re-simulation backlog while
conserving the cumulative event multiset — so it, too, never perturbs
later measurements.
"""

import pytest

from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.service.checkpoint import WindowJournal
from repro.service.ingest import IngestPipeline
from repro.service.shadow import FleetSpec
from repro.service.twin import DigitalTwin
from repro.service.windows import Window, WindowManager


def make_twin(**overrides):
    params = dict(
        real=FleetSpec(
            name="real",
            model="ncf",
            platform="broadwell",
            num_servers=2,
            batch_size=128,
            num_cores=4,
        ),
        sla_latency_s=0.1,
        load_generator=LoadGenerator(seed=5),
        search_num_queries=80,
        search_iterations=3,
        search_max_queries=240,
    )
    params.update(overrides)
    return DigitalTwin(**params)


def stream(num_queries=300, rate_qps=60.0, seed=3):
    return LoadGenerator(seed=seed).with_rate(rate_qps).generate(num_queries)


class TestWindowJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = WindowJournal(tmp_path)
        windows = [
            Window(0, 0.0, 2.0, (Query(0, 0.5, 16), Query(1, 1.5, 64))),
            Window(2, 4.0, 6.0, (Query(2, 4.25, 32),)),
        ]
        for window in windows:
            journal.append(window)
        assert WindowJournal(tmp_path).load() == windows

    def test_empty_journal_loads_nothing(self, tmp_path):
        journal = WindowJournal(tmp_path)
        assert journal.load() == []
        assert journal.corrupt_records == 0

    def test_torn_tail_is_tolerated_not_fatal(self, tmp_path):
        journal = WindowJournal(tmp_path)
        intact = Window(0, 0.0, 2.0, (Query(0, 0.5, 16),))
        journal.append(intact)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "start_s": 2.0, "que')  # crash mid-write
        loaded = journal.load()
        assert loaded == [intact]
        assert journal.corrupt_records == 1

    def test_corrupt_middle_record_seals_the_journal_there(self, tmp_path):
        journal = WindowJournal(tmp_path)
        journal.append(Window(0, 0.0, 2.0, (Query(0, 0.5, 16),)))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        journal.append(Window(1, 2.0, 4.0, (Query(1, 2.5, 16),)))
        loaded = journal.load()
        # Nothing past the corruption is trusted: at-least-once re-ingest
        # beats silently adopting a hole in the history.
        assert [w.index for w in loaded] == [0]
        assert journal.corrupt_records == 2


    @pytest.mark.parametrize(
        "record",
        [
            # queries nested 100,000 deep: json.loads raises RecursionError
            '{"index": 1, "start_s": 2.0, "end_s": 4.0, "queries": '
            + "[" * 100_000 + "]" * 100_000 + "}",
            # a 401-digit start_s: float() raises OverflowError
            '{"index": 1, "start_s": ' + "9" * 401 + ', "end_s": 4.0, "queries": []}',
        ],
        ids=["deeply-nested-queries", "huge-integer-start"],
    )
    def test_undecodable_record_is_counted_not_raised(self, tmp_path, record):
        journal = WindowJournal(tmp_path)
        intact = Window(0, 0.0, 2.0, (Query(0, 0.5, 16),))
        journal.append(intact)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(record + "\n")
        assert journal.load() == [intact]
        assert journal.corrupt_records == 1

class TestFastForward:
    def test_sealed_windows_read_as_late(self):
        manager = WindowManager(window_s=2.0)
        manager.fast_forward(2, 5.9)
        assert manager.add(Query(0, 1.0, 16)) == []  # window 0: sealed
        assert manager.late_events == 1
        manager.add(Query(1, 6.5, 16))  # window 3: accepted
        assert manager.accepted_events == 1

    def test_fast_forward_with_open_windows_refused(self):
        manager = WindowManager(window_s=2.0)
        manager.add(Query(0, 0.5, 16))
        with pytest.raises(ValueError, match="open windows"):
            manager.fast_forward(3)


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        queries = stream()
        crash_at = 200

        # Reference: the same stream through a never-crashed pipeline.
        with make_twin() as reference_twin:
            reference = IngestPipeline(WindowManager(2.0), reference_twin)
            for query in queries:
                reference.feed(query)
            reference.finish()
            expected = reference_twin.last_cumulative_result()

        # Crash: journal everything observed, then abandon the pipeline
        # mid-stream without flushing.
        first_twin = make_twin()
        crashed = IngestPipeline(
            WindowManager(2.0), first_twin, journal=WindowJournal(tmp_path)
        )
        for query in queries[:crash_at]:
            crashed.feed(query)
        observed_before_crash = first_twin.windows_observed
        assert observed_before_crash > 0
        first_twin.close()

        # Resume: restore the journal, fast-forward, re-feed the *whole*
        # stream (a replaying producer) — journalled events read as late.
        journal = WindowJournal(tmp_path)
        restored = journal.load()
        assert len(restored) == observed_before_crash
        with make_twin() as resumed_twin:
            resumed_twin.restore(restored)
            manager = WindowManager(2.0)
            manager.fast_forward(
                max(window.index for window in restored),
                max(q.arrival_time for w in restored for q in w.queries),
            )
            resumed = IngestPipeline(
                manager, resumed_twin, journal=journal
            )
            for query in queries:
                resumed.feed(query)
            resumed.finish()

            assert resumed_twin.cumulative_queries == len(queries)
            actual = resumed_twin.last_cumulative_result()
        assert actual.latencies_s == expected.latencies_s
        assert actual.num_queries == expected.num_queries
        # No journalled window was re-observed (no reprocessing), and every
        # already-journalled event re-fed by the producer was dropped late.
        assert manager.late_events == sum(len(w.queries) for w in restored)

    def test_restored_twin_skips_simulation_work(self, tmp_path):
        journal = WindowJournal(tmp_path)
        with make_twin() as twin:
            pipeline = IngestPipeline(WindowManager(2.0), twin, journal=journal)
            for query in stream(num_queries=150):
                pipeline.feed(query)
            pipeline.finish()
            observed = twin.windows_observed

        with make_twin() as resumed:
            resumed.restore(WindowJournal(tmp_path).load())
            # History conserved without a single capacity search: the
            # twin's private cache directory stays empty.
            assert resumed.windows_observed == observed
            assert resumed.capacity_cache.stats["stores"] == 0


class TestLoadShedding:
    def burst_pipeline(self, twin, shed_above):
        # A large lateness keeps every window open until flush, so finish()
        # presents one many-window backlog batch — the shedding trigger.
        manager = WindowManager(window_s=2.0, allowed_lateness_s=1e9)
        return IngestPipeline(manager, twin, shed_above=shed_above)

    def test_backlog_burst_sheds_oldest_windows(self):
        queries = stream(num_queries=240, rate_qps=40.0)
        with make_twin() as twin:
            pipeline = self.burst_pipeline(twin, shed_above=2)
            for query in queries:
                pipeline.feed(query)
            reports = pipeline.finish()
            backlog = twin.windows_observed
            assert backlog > 2
            assert pipeline.shed_windows == backlog - 2
            assert len(reports) == 2
            # The newest windows got the full treatment...
            assert [r.window.index for r in reports] == sorted(
                r.window.index for r in reports
            )
            # ...and shedding conserved the cumulative event multiset.
            assert twin.cumulative_queries == len(queries)
            assert reports[-1].cumulative_queries == len(queries)

    def test_shed_run_measurements_match_unshed_run(self):
        queries = stream(num_queries=240, rate_qps=40.0)
        with make_twin() as shed_twin:
            shed = self.burst_pipeline(shed_twin, shed_above=1)
            for query in queries:
                shed.feed(query)
            shed.finish()
            shed_result = shed_twin.last_cumulative_result()
        with make_twin() as full_twin:
            full = self.burst_pipeline(full_twin, shed_above=0)
            for query in queries:
                full.feed(query)
            full.finish()
            full_result = full_twin.last_cumulative_result()
        assert shed_result.latencies_s == full_result.latencies_s

    def test_shedding_disabled_by_default(self):
        with make_twin() as twin:
            pipeline = self.burst_pipeline(twin, shed_above=0)
            for query in stream(num_queries=120):
                pipeline.feed(query)
            reports = pipeline.finish()
            assert pipeline.shed_windows == 0
            assert len(reports) == twin.windows_observed

    def test_negative_shed_budget_rejected(self):
        with make_twin() as twin:
            with pytest.raises(ValueError, match="shed_above"):
                IngestPipeline(WindowManager(2.0), twin, shed_above=-1)
