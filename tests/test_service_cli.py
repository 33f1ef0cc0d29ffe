"""Tests for the service CLI entry point, line protocol, and transports."""

import asyncio
import io
import json

import pytest

from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.queries.trace import QueryTrace
from repro.service.__main__ import build_parser, build_pipeline, main
from repro.service.ingest import (
    MAX_LINE_BYTES,
    IngestPipeline,
    parse_event,
    serve_tcp,
)
from repro.service.shadow import FleetSpec
from repro.service.twin import DigitalTwin
from repro.service.windows import WindowManager
from repro.serving.cluster import ClusterSimulator

WHAT_IF = FleetSpec(
    name="what-if",
    model="ncf",
    platform="broadwell",
    num_servers=1,
    batch_size=128,
    num_cores=2,
)

#: CLI arguments selecting a small, fast real fleet for end-to-end runs.
FAST_FLEET_ARGS = [
    "--model", "ncf",
    "--platform", "broadwell",
    "--servers", "2",
    "--batch-size", "128",
    "--num-cores", "4",
]


def save_trace(tmp_path, num_queries=300, rate_qps=60.0, seed=3):
    queries = LoadGenerator(seed=seed).with_rate(rate_qps).generate(num_queries)
    path = tmp_path / "trace.json"
    QueryTrace(queries=queries).save(path)
    return path, queries


def save_what_if(tmp_path):
    path = tmp_path / "what_if.json"
    path.write_text(json.dumps(WHAT_IF.to_dict()))
    return path


def make_pipeline(window_s=2.0, **twin_kwargs):
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
    params.update(twin_kwargs)
    return IngestPipeline(WindowManager(window_s=window_s), DigitalTwin(**params))


class TestParseEvent:
    def test_json_and_csv_forms_agree(self):
        json_query = parse_event('{"query_id": 5, "arrival_time": 1.5, "size": 64}')
        csv_query = parse_event("5,1.5,64")
        assert json_query == csv_query == Query(5, 1.5, 64)

    def test_blank_and_comment_lines_skipped(self):
        assert parse_event("") is None
        assert parse_event("   \n") is None
        assert parse_event("# header") is None

    @pytest.mark.parametrize(
        "line",
        [
            "garbage",
            "1,2",  # missing field
            "1,2,3,4",  # extra field
            '{"query_id": 1}',  # missing keys
            '{"query_id": "x", "arrival_time": 0, "size": 1}',
            "{broken json",
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError, match="unparseable"):
            parse_event(line)

    def test_pipeline_counts_malformed_instead_of_raising(self):
        pipeline = make_pipeline()
        assert pipeline.feed_line("not an event") == []
        assert pipeline.feed_line("# fine") == []
        assert pipeline.malformed_lines == 1

    @pytest.mark.parametrize(
        "line",
        [
            "1,nan,3",
            "1,NaN,3",
            "1,inf,3",
            "1,-inf,3",
            "1,1e400,3",
            '{"query_id": 1, "arrival_time": NaN, "size": 3}',
            '{"query_id": 1, "arrival_time": Infinity, "size": 3}',
            '{"query_id": 1, "arrival_time": 1e400, "size": 3}',
            '{"query_id": 1, "arrival_time": 1' + "0" * 400 + ', "size": 3}',
        ],
    )
    def test_non_finite_timestamps_are_malformed_not_fatal(self, line):
        with pytest.raises(ValueError, match="unparseable"):
            parse_event(line)
        pipeline = make_pipeline()
        assert pipeline.feed_line("0,0.5,16") == []
        assert pipeline.feed_line(line) == []
        assert pipeline.malformed_lines == 1
        # The pipeline keeps accepting events: this one closes window [0, 2).
        assert len(pipeline.feed_line("2,5.0,16")) == 1
        assert len(pipeline.finish()) == 1
        assert pipeline.twin.cumulative_queries == 2

    @pytest.mark.parametrize(
        "json_line, csv_line",
        [
            ('{"query_id": 1, "arrival_time": 0.5, "size": 2.7}', "1,0.5,2.7"),
            ('{"query_id": 1, "arrival_time": 0.5, "size": 2.0}', "1,0.5,2.0"),
            ('{"query_id": 1.5, "arrival_time": 0.5, "size": 2}', "1.5,0.5,2"),
            ('{"query_id": true, "arrival_time": 0.5, "size": 2}', "true,0.5,2"),
            ('{"query_id": 1, "arrival_time": true, "size": 2}', "1,true,2"),
            ('{"query_id": 1, "arrival_time": 0.5, "size": true}', "1,0.5,true"),
        ],
    )
    def test_json_rejects_what_csv_rejects(self, json_line, csv_line):
        # Not truncated (2.7 -> 2) or read as a number (true -> 1).
        for line in (json_line, csv_line):
            with pytest.raises(ValueError, match="unparseable"):
                parse_event(line)
        pipeline = make_pipeline()
        assert pipeline.feed_line(json_line) == []
        assert pipeline.malformed_lines == 1
        assert pipeline.windows.accepted_events == 0

    def test_json_integral_timestamp_is_accepted(self):
        line = '{"query_id": 3, "arrival_time": 2, "size": 8}'
        assert parse_event(line) == parse_event("3,2,8") == Query(3, 2.0, 8)

    def test_resent_events_are_simulated_not_fatal(self):
        # A resent event repeats its query_id while the first copy is still
        # in flight; the twin keys in-flight queries by arrival, not id.
        queries = LoadGenerator(seed=9).with_rate(400.0).generate(300)
        lines = []
        for query in queries:
            line = json.dumps(
                {"query_id": query.query_id, "arrival_time": query.arrival_time,
                 "size": query.size}
            )
            lines.extend([line, line] if query.query_id % 3 == 0 else [line])
        real = FleetSpec(name="real", model="ncf", platform="broadwell",
                         num_servers=1, batch_size=128, num_cores=4)
        pipeline = make_pipeline(window_s=0.25, real=real)
        reports = pipeline.feed_lines(lines) + pipeline.finish()
        assert pipeline.malformed_lines == 0
        assert [report.window.index for report in reports] == list(range(len(reports)))
        assert reports[-1].cumulative_queries == len(lines)
        batch = ClusterSimulator(real.build_servers(), balancer=real.policy).run(
            [parse_event(line) for line in lines]
        )
        assert pipeline.twin.last_cumulative_result() == batch

    def test_trace_round_trips_through_the_protocol(self):
        queries = LoadGenerator(seed=9).with_rate(50.0).generate(40)
        lines = [
            json.dumps(
                {"query_id": q.query_id, "arrival_time": q.arrival_time, "size": q.size}
            )
            for q in queries
        ]
        assert [parse_event(line) for line in lines] == queries


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.port == 0
        assert not args.stdin
        assert args.replay == ""
        assert args.window_s == 60.0
        assert args.lateness_s == 0.0
        assert args.what_if_config == ""
        assert args.model == "dlrm-rmc1"
        assert args.sla_ms == 100.0
        assert args.jobs == 1
        assert not args.one_shot
        assert not args.report

    def test_service_knobs_parse(self):
        args = build_parser().parse_args(
            ["--port", "9900", "--window-s", "30", "--what-if-config", "wi.json"]
        )
        assert args.port == 9900
        assert args.window_s == 30.0
        assert args.what_if_config == "wi.json"

    def test_event_sources_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--stdin", "--replay", "trace.json"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--policy", "psychic"])
        capsys.readouterr()


class TestMainValidation:
    def test_no_event_source_is_an_error(self, capsys):
        assert main([]) == 2
        assert "pick an event source" in capsys.readouterr().err

    def test_non_positive_window_rejected(self, capsys):
        assert main(["--stdin", "--window-s", "0"]) == 2
        assert "--window-s" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, capsys):
        assert main(["--stdin", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_negative_idle_timeout_rejected(self, capsys):
        assert main(["--stdin", "--idle-timeout-s", "-1"]) == 2
        assert "--idle-timeout-s" in capsys.readouterr().err


class TestBuildPipeline:
    def test_real_spec_reflects_arguments(self, tmp_path):
        what_if_path = save_what_if(tmp_path)
        args = build_parser().parse_args(
            [
                "--replay", "unused",
                "--window-s", "5",
                "--lateness-s", "1.5",
                "--what-if-config", str(what_if_path),
                *FAST_FLEET_ARGS,
                "--policy", "round-robin",
                "--sla-ms", "80",
            ]
        )
        pipeline = build_pipeline(args)
        with pipeline.twin:
            real, what_if = pipeline.twin.specs()
            assert real == FleetSpec(
                name="real",
                model="ncf",
                platform="broadwell",
                num_servers=2,
                batch_size=128,
                num_cores=4,
                policy="round-robin",
            )
            assert what_if == WHAT_IF
            assert pipeline.twin.sla_latency_s == pytest.approx(0.08)
            assert pipeline.windows.window_s == 5.0
            assert pipeline.windows.allowed_lateness_s == 1.5


class TestReplayEndToEnd:
    def test_replay_streams_trace_and_reports_shadow(self, tmp_path, capsys):
        trace_path, queries = save_trace(tmp_path)
        what_if_path = save_what_if(tmp_path)
        exit_code = main(
            [
                "--replay", str(trace_path),
                "--window-s", "2",
                "--what-if-config", str(what_if_path),
                *FAST_FLEET_ARGS,
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        out_lines = [line for line in captured.out.splitlines() if line]
        summaries = [line for line in out_lines if line.startswith("w0")]
        assert len(summaries) >= 2  # one per closed window
        assert "real=" in summaries[0] and "what-if=" in summaries[0]
        assert "shadow mode:" in captured.out
        assert "last verdict:" in captured.out

    def test_replay_without_what_if_prints_plain_summaries(self, tmp_path, capsys):
        trace_path, _ = save_trace(tmp_path, num_queries=150)
        assert main(
            ["--replay", str(trace_path), "--window-s", "2", *FAST_FLEET_ARGS]
        ) == 0
        captured = capsys.readouterr()
        assert "shadow mode:" not in captured.out
        assert "real=" in captured.out

    def test_report_flag_prints_full_tables(self, tmp_path, capsys):
        trace_path, _ = save_trace(tmp_path, num_queries=150)
        assert main(
            [
                "--replay", str(trace_path),
                "--window-s", "2",
                "--report",
                *FAST_FLEET_ARGS,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "capacity-qps" in out  # the verdict table headers
        assert "headroom" in out


class TestStdinTransport:
    def test_stdin_lines_drive_the_pipeline(self, tmp_path, capsys, monkeypatch):
        _, queries = save_trace(tmp_path, num_queries=150)
        lines = [
            f"{q.query_id},{q.arrival_time},{q.size}\n" for q in queries
        ] + ["bogus line\n"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        assert main(["--stdin", "--window-s", "2", *FAST_FLEET_ARGS]) == 0
        captured = capsys.readouterr()
        assert "real=" in captured.out
        assert "1 malformed lines" in captured.err


class TestTcpTransport:
    def run_client_session(self, pipeline, lines):
        """Serve one one-shot TCP session, stream ``lines``, return replies."""

        async def scenario():
            bound = asyncio.get_running_loop().create_future()
            server = asyncio.create_task(
                serve_tcp(pipeline, port=0, one_shot=True, on_listening=bound.set_result)
            )
            port = await asyncio.wait_for(bound, timeout=10)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write("".join(lines).encode())
            await writer.drain()
            writer.write_eof()
            replies = [line async for line in reader]
            writer.close()
            await asyncio.wait_for(server, timeout=30)
            return [reply.decode().rstrip("\n") for reply in replies]

        return asyncio.run(scenario())

    def test_tcp_session_reports_closed_windows(self):
        pipeline = make_pipeline(window_s=2.0)
        queries = LoadGenerator(seed=5).with_rate(60.0).generate(200)
        lines = [f"{q.query_id},{q.arrival_time},{q.size}\n" for q in queries]
        with pipeline.twin:
            replies = self.run_client_session(pipeline, lines)
        assert replies, "no window summaries came back over the socket"
        assert all(reply.startswith("w0") for reply in replies)
        # The flush on disconnect reported the final partial window too.
        assert len(pipeline.reports) == len(replies) + 1
        assert pipeline.twin.cumulative_queries == len(queries)

    def test_oversized_and_malformed_lines_are_counted_not_fatal(self):
        pipeline = make_pipeline(window_s=2.0)
        queries = LoadGenerator(seed=5).with_rate(60.0).generate(120)
        lines = (
            ["x" * (MAX_LINE_BYTES + 1) + "\n", "gibberish\n"]
            + [f"{q.query_id},{q.arrival_time},{q.size}\n" for q in queries]
        )
        with pipeline.twin:
            self.run_client_session(pipeline, lines)
        assert pipeline.malformed_lines == 2
        assert pipeline.twin.cumulative_queries == len(queries)

    def test_half_open_client_disconnected_after_idle_timeout(self):
        # A client that connects and then goes silent — a crashed producer
        # or dropped NAT mapping, never sending EOF — must not hold the
        # one-shot server forever: the idle bound drops it, counts it, and
        # the events it did deliver are still flushed and reported.
        pipeline = make_pipeline(window_s=2.0)

        async def scenario():
            bound = asyncio.get_running_loop().create_future()
            server = asyncio.create_task(
                serve_tcp(
                    pipeline,
                    port=0,
                    one_shot=True,
                    on_listening=bound.set_result,
                    idle_timeout_s=0.2,
                )
            )
            port = await asyncio.wait_for(bound, timeout=10)
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"1,0.5,64\n")
            await writer.drain()
            # No EOF, no more lines: the server must disconnect us.
            await asyncio.wait_for(server, timeout=30)
            writer.close()

        with pipeline.twin:
            asyncio.run(scenario())
        assert pipeline.idle_disconnects == 1
        assert pipeline.twin.cumulative_queries == 1  # flushed on disconnect


class _InterruptedStream:
    """Iterable of event lines that raises KeyboardInterrupt mid-stream."""

    def __init__(self, lines, interrupt_after):
        self._lines = lines
        self._interrupt_after = interrupt_after

    def __iter__(self):
        for index, line in enumerate(self._lines):
            if index == self._interrupt_after:
                raise KeyboardInterrupt
            yield line


class TestGracefulShutdown:
    """SIGINT/SIGTERM flush the final partial window and exit 130 — no
    traceback, no lost report."""

    def test_stdin_interrupt_flushes_partial_window(self, tmp_path, capsys, monkeypatch):
        _, queries = save_trace(tmp_path, num_queries=150)
        lines = [f"{q.query_id},{q.arrival_time},{q.size}\n" for q in queries]
        monkeypatch.setattr(
            "sys.stdin", _InterruptedStream(lines, interrupt_after=len(lines) - 10)
        )
        exit_code = main(["--stdin", "--window-s", "2", *FAST_FLEET_ARGS])
        captured = capsys.readouterr()
        assert exit_code == 130
        # The flush reported windows — including the final partial one.
        assert "real=" in captured.out
        assert "interrupted" in captured.err

    def test_replay_interrupt_flushes_partial_window(self, tmp_path, capsys, monkeypatch):
        trace_path, queries = save_trace(tmp_path, num_queries=150)

        class InterruptingTrace:
            @staticmethod
            def load(path):
                return _InterruptedStream(queries, interrupt_after=len(queries) - 10)

        monkeypatch.setattr("repro.service.__main__.QueryTrace", InterruptingTrace)
        exit_code = main(["--replay", str(trace_path), "--window-s", "2", *FAST_FLEET_ARGS])
        captured = capsys.readouterr()
        assert exit_code == 130
        assert "real=" in captured.out
        assert "interrupted" in captured.err


class TestGracefulShutdownSignals:
    """Real signals against a real service subprocess."""

    def spawn_service(self, extra_args, tmp_path):
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [_sys.executable, "-m", "repro.service", *extra_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=root,
            text=True,
        )

    def test_sigterm_on_stdin_service_exits_cleanly(self, tmp_path):
        import signal as _signal

        queries = LoadGenerator(seed=3).with_rate(60.0).generate(200)
        lines = "".join(
            f"{q.query_id},{q.arrival_time},{q.size}\n" for q in queries
        )
        proc = self.spawn_service(
            ["--stdin", "--window-s", "2", *FAST_FLEET_ARGS], tmp_path
        )
        try:
            proc.stdin.write(lines)
            proc.stdin.flush()
            # "reading events from stdin" on stderr is the readiness marker.
            marker = proc.stderr.readline()
            assert "reading events" in marker
            proc.send_signal(_signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "Traceback" not in stderr
        assert "interrupted" in stderr

    def test_sigint_on_tcp_service_exits_cleanly(self, tmp_path):
        import signal as _signal

        proc = self.spawn_service(
            ["--port", "19893", "--window-s", "2", "--one-shot", *FAST_FLEET_ARGS],
            tmp_path,
        )
        try:
            # "listening on port" on stderr is the readiness marker.
            marker = proc.stderr.readline()
            assert "listening" in marker
            proc.send_signal(_signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "Traceback" not in stderr
        assert "interrupted" in stderr


class TestCheckpointCli:
    def test_replay_resume_skips_reprocessing(self, tmp_path, capsys):
        trace_path, queries = save_trace(tmp_path, num_queries=150)
        checkpoint = tmp_path / "ckpt"
        args = [
            "--replay", str(trace_path),
            "--window-s", "2",
            "--checkpoint-dir", str(checkpoint),
            *FAST_FLEET_ARGS,
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "resumed" not in first.err
        first_windows = sum(
            1 for line in first.out.splitlines() if line.startswith("w0")
        )
        assert first_windows >= 2

        # Second run resumes from the journal: the whole replay reads as
        # late (already observed), nothing is re-simulated.
        assert main(args) == 0
        second = capsys.readouterr()
        assert f"{len(queries)} events" in second.err  # resume banner
        assert "resumed from checkpoint" in second.err
        assert f"{len(queries)} late events" in second.err
        assert not [
            line for line in second.out.splitlines() if line.startswith("w0")
        ]
