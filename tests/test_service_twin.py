"""Tests for the digital twin: incremental simulation and shadow mode."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.generator import LoadGenerator
from repro.queries.query import arrival_rows
from repro.queries.trace import DiurnalPattern, generate_diurnal_trace
from repro.runtime.capacity import CapacitySearch
from repro.service.shadow import (
    ConfigVerdict,
    FleetSpec,
    compare_verdicts,
    load_fleet_spec,
)
from repro.service.twin import DigitalTwin, render_window_reports
from repro.service.windows import Window, WindowManager
from repro.serving.cluster import ClusterSimulationResult, ClusterSimulator
from repro.serving.simulator import EventLoop

#: Low-fidelity search knobs: the capacity answer only needs to be
#: deterministic for these tests, not paper-accurate.
FAST_SEARCH = dict(search_num_queries=80, search_iterations=3, search_max_queries=240)

REAL = FleetSpec(
    name="real",
    model="ncf",
    platform="broadwell",
    num_servers=3,
    batch_size=128,
    num_cores=4,
)
UNDER_PROVISIONED = FleetSpec(
    name="what-if",
    model="ncf",
    platform="broadwell",
    num_servers=1,
    batch_size=128,
    num_cores=2,
)


def make_twin(what_if=None, **kwargs):
    params = dict(
        real=REAL,
        sla_latency_s=0.05,
        load_generator=LoadGenerator(seed=7),
        what_if=what_if,
        **FAST_SEARCH,
    )
    params.update(kwargs)
    return DigitalTwin(**params)


def windowed_stream(num_queries=500, rate_qps=80.0, window_s=2.0, seed=7):
    queries = LoadGenerator(seed=seed).with_rate(rate_qps).generate(num_queries)
    manager = WindowManager(window_s=window_s)
    windows = manager.extend(queries) + manager.flush()
    return queries, windows


class TestCumulativeBitIdentity:
    """Every window's report == a one-shot batch run over the events so far."""

    @settings(max_examples=30, deadline=None)
    @given(
        policy=st.sampled_from(["power-of-two", "random"]),
        num_servers=st.integers(1, 3),
        num_cores=st.integers(1, 2),
        # Sizes reach 1000 items, so every batch size splits some queries.
        batch_size=st.sampled_from([32, 128]),
        # The top rates overload the small fleets: backlogs span windows.
        rate_qps=st.sampled_from([40.0, 150.0, 600.0, 2000.0]),
        num_queries=st.integers(30, 240),
        window_s=st.sampled_from([0.25, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_every_window_matches_batch_over_events_so_far(
        self, policy, num_servers, num_cores, batch_size, rate_qps,
        num_queries, window_s, seed, data,
    ):
        spec = FleetSpec(
            name="real", model="ncf", platform="broadwell", num_servers=num_servers,
            batch_size=batch_size, num_cores=num_cores, policy=policy,
        )
        queries, windows = windowed_stream(
            num_queries=num_queries, rate_qps=rate_qps, window_s=window_s, seed=seed
        )
        absorbing = data.draw(st.lists(st.booleans(), min_size=len(windows),
                                       max_size=len(windows)))
        history = []
        with make_twin(real=spec) as twin:
            for window, absorb in zip(windows, absorbing):
                history.extend(window.queries)
                if absorb:
                    twin.absorb(window)
                    report = None
                else:
                    report = twin.observe(window)
                # Called after every window: a fork's drain that leaked into
                # the live loop would show in every later window.
                result = twin.last_cumulative_result()
                batch = ClusterSimulator(
                    spec.build_servers(), balancer=spec.policy
                ).run(history)
                assert result.latencies_s == batch.latencies_s
                assert result.per_server == batch.per_server
                assert result.drain_s == batch.drain_s
                assert result.duration_s == batch.duration_s
                assert result == batch
                if report is not None:
                    sla = twin.sla_latency_s
                    assert report.cumulative_queries == len(history)
                    assert report.real.p95_latency_s == batch.p95_latency_s
                    assert report.real.meets_sla == batch.meets_sla(sla)
                    assert report.real.stable == batch.is_stable(sla)

    def test_final_window_matches_one_shot_batch(self):
        queries, windows = windowed_stream()
        assert len(windows) >= 3  # the slicing has to actually happen
        with make_twin() as twin:
            for window in windows:
                twin.observe(window)
            windowed = twin.last_cumulative_result()
        batch_servers = REAL.build_servers()
        batch = ClusterSimulator(batch_servers, balancer=REAL.policy).run(queries)
        assert windowed.latencies_s == batch.latencies_s  # bit-identical
        assert windowed.p95_latency_s == batch.p95_latency_s
        assert windowed.per_server == batch.per_server

    def test_what_if_side_is_also_bit_identical(self):
        queries, windows = windowed_stream(num_queries=300)
        with make_twin(what_if=UNDER_PROVISIONED) as twin:
            for window in windows:
                twin.observe(window)
            windowed = twin.last_cumulative_result("what-if")
        batch = ClusterSimulator(
            UNDER_PROVISIONED.build_servers(), balancer=UNDER_PROVISIONED.policy
        ).run(queries)
        assert windowed.latencies_s == batch.latencies_s

    def test_identity_is_independent_of_window_size(self):
        queries, coarse = windowed_stream(num_queries=300, window_s=5.0)
        _, fine = windowed_stream(num_queries=300, window_s=1.0)
        assert len(fine) > len(coarse)
        results = []
        for windows in (coarse, fine):
            with make_twin() as twin:
                for window in windows:
                    twin.observe(window)
                results.append(twin.last_cumulative_result())
        assert results[0].latencies_s == results[1].latencies_s

    def test_out_of_order_stream_within_lateness_matches_batch(self):
        queries, _ = windowed_stream(num_queries=200)
        # Swap adjacent events: mild disorder a real feed would show.
        shuffled = list(queries)
        for i in range(0, len(shuffled) - 1, 2):
            shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        manager = WindowManager(window_s=2.0, allowed_lateness_s=1.0)
        windows = manager.extend(shuffled) + manager.flush()
        assert manager.late_events == 0
        with make_twin() as twin:
            for window in windows:
                twin.observe(window)
            windowed = twin.last_cumulative_result()
        batch = ClusterSimulator(REAL.build_servers(), balancer=REAL.policy).run(
            queries
        )
        assert windowed.latencies_s == batch.latencies_s


class TestLeanVerdictRead:
    """Verdicts drain a fork with ``finish_sla``, never a full ``finish``."""

    @settings(max_examples=20, deadline=None)
    @given(
        num_servers=st.integers(1, 3),
        rate_qps=st.sampled_from([40.0, 600.0, 2000.0]),
        num_queries=st.integers(30, 200),
        window_s=st.sampled_from([0.25, 1.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_lean_read_equals_full_finish_at_every_window(
        self, num_servers, rate_qps, num_queries, window_s, seed, data
    ):
        spec = FleetSpec(
            name="real", model="ncf", platform="broadwell",
            num_servers=num_servers, batch_size=128, num_cores=2,
        )
        _, windows = windowed_stream(
            num_queries=num_queries, rate_qps=rate_qps, window_s=window_s, seed=seed
        )
        absorbing = data.draw(st.lists(st.booleans(), min_size=len(windows),
                                       max_size=len(windows)))
        fields = ("p95_latency_s", "p95_late_window_s", "drain_s", "arrival_span_s")
        with make_twin(real=spec, what_if=UNDER_PROVISIONED) as twin:
            # Loops fed the same rows but never read: the reads must not
            # leak into any later window's results.
            unread = [
                ClusterSimulator(s.build_servers(), balancer=s.policy).stream()
                for s in twin.specs()
            ]
            for window, absorb in zip(windows, absorbing):
                if absorb:
                    twin.absorb(window)
                    report = None
                else:
                    report = twin.observe(window)
                rows = arrival_rows(window.queries)
                for loop in unread:
                    loop.feed(rows)
                verdicts = (report.real, report.what_if) if report else (None, None)
                for state, loop, verdict in zip(twin._fleets, unread, verdicts):
                    full = loop.fork().finish()
                    lean = state.stream.fork().finish_sla()
                    assert [getattr(lean, f) for f in fields] == [
                        getattr(full, f) for f in fields
                    ]
                    for sla in (twin.sla_latency_s, full.p95_latency_s,
                                full.p95_late_window_s, full.drain_s / 2):
                        assert lean.meets_sla(sla) == full.meets_sla(sla)
                        assert lean.is_stable(sla) == full.is_stable(sla)
                    assert twin.last_cumulative_result(state.spec.name) == full
                    if verdict is not None:
                        sla = twin.sla_latency_s
                        assert verdict.p95_latency_s == full.p95_latency_s
                        assert verdict.meets_sla == full.meets_sla(sla)
                        assert verdict.stable == full.is_stable(sla)

    def test_lean_read_needs_an_open_ended_loop(self):
        servers = REAL.build_servers()
        loop = EventLoop(
            ClusterSimulator(servers)._build_kernels(), 0.1, num_queries=10
        )
        with pytest.raises(ValueError, match="open-ended"):
            loop.finish_sla()


class TestVerdictCost:
    """What a window's verdict may cost, counted, not timed."""

    def test_observe_never_finishes_a_full_result(self, monkeypatch):
        finishes = []
        results = []
        finish = EventLoop.finish

        def counting_finish(self):
            finishes.append(self)
            return finish(self)

        result_init = ClusterSimulationResult.__init__

        def counting_init(self, *args, **kwargs):
            results.append(self)
            result_init(self, *args, **kwargs)

        _, windows = windowed_stream(num_queries=400, window_s=1.0)
        assert len(windows) > 3
        with make_twin(what_if=UNDER_PROVISIONED) as twin:
            # Window 0 runs the cold capacity searches, which do finish
            # one-shot runs; every later window replays them from the memo.
            twin.observe(windows[0])
            monkeypatch.setattr(EventLoop, "finish", counting_finish)
            monkeypatch.setattr(ClusterSimulationResult, "__init__", counting_init)
            for window in windows[1:]:
                report = twin.observe(window)
                assert report.real.evaluations == report.what_if.evaluations == 0
                for state in twin._fleets:
                    for value in vars(state).values():
                        assert not hasattr(value, "latencies_s")
                        assert not (
                            isinstance(value, list)
                            and any(isinstance(item, float) for item in value)
                        )
            assert finishes == []
            assert results == []
            for calls, config in enumerate(("real", "what-if", "real"), start=1):
                twin.last_cumulative_result(config)
                assert len(finishes) == calls


class TestCapacityMemoEconomics:
    def test_first_window_cold_then_memo_replays(self):
        _, windows = windowed_stream(num_queries=400)
        with make_twin(what_if=UNDER_PROVISIONED) as twin:
            reports = [twin.observe(window) for window in windows]
            stats = twin.capacity_cache.stats
        assert reports[0].real.evaluations > 0
        assert reports[0].what_if.evaluations > 0
        for report in reports[1:]:
            assert report.real.evaluations == 0
            assert report.what_if.evaluations == 0
        assert stats["stores"] == 2  # one cold search per config
        assert stats["memo_hits"] == 2 * (len(reports) - 1)

    def test_one_search_per_fleet_per_twin(self, monkeypatch):
        built = []
        for_fleet = CapacitySearch.for_fleet.__func__

        def spy(cls, *args, **kwargs):
            search = for_fleet(cls, *args, **kwargs)
            built.append(search)
            return search

        monkeypatch.setattr(CapacitySearch, "for_fleet", classmethod(spy))
        _, windows = windowed_stream(num_queries=300, window_s=0.5)
        assert len(windows) > 3
        with make_twin(what_if=UNDER_PROVISIONED) as twin:
            twin.absorb(windows[0])
            assert built == []  # absorbing runs no search, so builds none
            for window in windows[1:]:
                twin.observe(window)
        assert len(built) == 2
        assert len({id(search) for search in built}) == 2

    def test_capacity_prediction_stable_across_windows(self):
        _, windows = windowed_stream(num_queries=400)
        with make_twin() as twin:
            capacities = {twin.observe(w).real.capacity_qps for w in windows}
        assert len(capacities) == 1  # the memo replays the same answer

    def test_cumulative_counters_track_history(self):
        _, windows = windowed_stream(num_queries=200)
        with make_twin() as twin:
            for expected, window in enumerate(windows, start=1):
                report = twin.observe(window)
                assert twin.windows_observed == expected
            assert report.cumulative_queries == sum(
                len(w.queries) for w in windows
            )
            assert twin.cumulative_queries == report.cumulative_queries


class TestShadowMode:
    def test_under_provisioned_what_if_diverges_on_diurnal_replay(self):
        trace = generate_diurnal_trace(
            700.0,
            20.0,
            pattern=DiurnalPattern(amplitude=0.5, period_s=20.0),
            seed=17,
            time_step_s=2.0,
        )
        manager = WindowManager(window_s=4.0)
        windows = manager.extend(trace.queries) + manager.flush()
        with make_twin(
            what_if=UNDER_PROVISIONED, search_max_queries=400
        ) as twin:
            reports = [twin.observe(window) for window in windows]
        # The real fleet holds the SLA throughout; the what-if cannot.
        assert all(r.real.green for r in reports)
        diverged = [r for r in reports if r.shadow.diverged]
        assert diverged, "under-provisioned what-if never flagged"
        final = reports[-1]
        assert not final.what_if.green
        assert final.shadow.diverged
        assert "DIVERGED" in final.shadow.describe()
        assert final.what_if.config in final.shadow.describe()
        assert "DIVERGED" in final.summary_line()

    def test_identical_configs_never_diverge(self):
        twin_spec = FleetSpec(**{**REAL.to_dict(), "name": "candidate"})
        _, windows = windowed_stream(num_queries=300)
        with make_twin(what_if=twin_spec) as twin:
            reports = [twin.observe(window) for window in windows]
        for report in reports:
            assert not report.shadow.diverged
            assert report.shadow.p95_delta_s == 0.0
            assert report.shadow.capacity_delta_qps == 0.0
            assert "aligned" in report.shadow.describe()

    def test_no_what_if_means_no_shadow_verdict(self):
        _, windows = windowed_stream(num_queries=120)
        with make_twin() as twin:
            report = twin.observe(windows[0])
        assert report.what_if is None
        assert report.shadow is None
        assert "what-if" not in report.summary_line()

    def test_shadow_verdict_directions(self):
        def verdict(name, p95, green):
            return ConfigVerdict(
                config=name,
                p95_latency_s=p95,
                sla_latency_s=0.1,
                meets_sla=green,
                stable=green,
                capacity_qps=1000.0,
                offered_qps=500.0,
                evaluations=0,
            )

        recovering = compare_verdicts(
            verdict("real", 0.4, False), verdict("what-if", 0.05, True)
        )
        assert recovering.diverged
        assert "meets the 100.0 ms SLA" in recovering.describe()
        aligned_red = compare_verdicts(
            verdict("real", 0.4, False), verdict("what-if", 0.5, False)
        )
        assert not aligned_red.diverged
        assert "both RED" in aligned_red.describe()


class TestTwinReports:
    def test_to_experiment_result_shape(self):
        _, windows = windowed_stream(num_queries=300)
        with make_twin(what_if=UNDER_PROVISIONED) as twin:
            report = twin.observe(windows[0])
        result = report.to_experiment_result()
        assert result.experiment_id == "digital-twin-w0000"
        assert [row[0] for row in result.rows] == ["real", "what-if"]
        assert len(result.rows[0]) == len(result.headers)
        assert result.metadata["window_index"] == 0
        assert "diverged" in result.metadata

    def test_render_window_reports_produces_report_text(self):
        _, windows = windowed_stream(num_queries=300)
        with make_twin() as twin:
            reports = [twin.observe(window) for window in windows[:2]]
        text = render_window_reports(reports)
        assert "digital-twin-w0000" in text
        assert "digital-twin-w0001" in text
        assert "capacity-qps" in text

    def test_median_window_rate_tracks_closed_windows(self):
        _, windows = windowed_stream(num_queries=300)
        with make_twin() as twin:
            reports = [twin.observe(window) for window in windows]
        rates = [w.mean_rate_qps for w in windows]
        assert reports[0].median_window_rate_qps == rates[0]
        assert reports[-1].median_window_rate_qps == pytest.approx(
            sorted(rates)[len(rates) // 2], rel=0.5
        )


class TestTwinGuards:
    def test_empty_window_rejected(self):
        with make_twin() as twin:
            with pytest.raises(ValueError, match="empty"):
                twin.observe(Window(index=0, start_s=0.0, end_s=1.0, queries=()))

    @pytest.mark.parametrize("feed", ["observe", "absorb"])
    def test_out_of_order_window_rejected(self, feed):
        _, windows = windowed_stream(num_queries=400)
        with make_twin() as twin:
            latest = windows[1].index
            getattr(twin, feed)(windows[1])
            for stale in (windows[0], windows[1]):
                with pytest.raises(ValueError) as excinfo:
                    getattr(twin, feed)(stale)
                message = str(excinfo.value)
                assert f"window {stale.index} arrived after window {latest}" in message
            # The refused windows fed nothing; in-order feeding carries on.
            assert twin.cumulative_queries == len(windows[1].queries)
            twin.observe(windows[2])
            assert twin.windows_observed == 2

    def test_no_history_rejected(self):
        with make_twin() as twin:
            with pytest.raises(ValueError, match="no windows"):
                twin.last_cumulative_result()

    def test_unknown_config_rejected(self):
        _, windows = windowed_stream(num_queries=120)
        with make_twin() as twin:
            twin.observe(windows[0])
            with pytest.raises(KeyError, match="unknown config"):
                twin.last_cumulative_result("nope")

    def test_duplicate_config_names_rejected(self):
        with pytest.raises(ValueError, match="distinct names"):
            make_twin(what_if=FleetSpec(**{**UNDER_PROVISIONED.to_dict(), "name": "real"}))

    def test_explicit_cache_dir_is_not_deleted_on_close(self, tmp_path):
        _, windows = windowed_stream(num_queries=120)
        twin = make_twin(capacity_cache_dir=tmp_path)
        twin.observe(windows[0])
        twin.close()
        assert tmp_path.exists()
        assert list(tmp_path.iterdir())  # the cold search was persisted


class TestFleetSpec:
    def test_round_trip_and_loading(self, tmp_path):
        path = tmp_path / "what_if.json"
        path.write_text(json.dumps(UNDER_PROVISIONED.to_dict()))
        assert load_fleet_spec(path) == UNDER_PROVISIONED

    def test_name_default_applied_when_missing(self, tmp_path):
        payload = UNDER_PROVISIONED.to_dict()
        del payload["name"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert load_fleet_spec(path, name="candidate").name == "candidate"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet-spec keys"):
            FleetSpec.from_dict({**UNDER_PROVISIONED.to_dict(), "gpus": 4})

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_fleet_spec(path)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown balancing policy"):
            FleetSpec(
                name="x", model="ncf", num_servers=1, batch_size=8, policy="psychic"
            )
