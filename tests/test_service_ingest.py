"""The service's per-line ingest path: parsing and its call chain.

:func:`~repro.service.ingest.parse_event` reads a JSON line with one raw
scan instead of ``json.loads``.  A Hypothesis differential test checks it
against the ``json.loads`` version, kept here as an oracle: on every line
both return the same ``Query`` (bit for bit) or both raise ``ValueError``.
The structural tests pin the call chain the benchmark's tracer wraps: one
call of the module-level ``parse_event`` per line and one
``WindowManager.add`` per parsed event.
"""

import json
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.service import ingest
from repro.service.ingest import IngestPipeline, parse_event
from repro.service.shadow import FleetSpec
from repro.service.twin import DigitalTwin
from repro.service.windows import WindowManager
from repro.serving.cluster import ClusterSimulator

SETTINGS = settings(max_examples=300, deadline=None)

REAL = FleetSpec(name="real", model="ncf", platform="broadwell", num_servers=2,
                 batch_size=128, num_cores=4)


def oracle_parse_event(line: str) -> Optional[Query]:
    """``parse_event`` as it was when it decoded JSON with ``json.loads``."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    try:
        if text.startswith("{"):
            payload = json.loads(text)
            query_id = payload["query_id"]
            arrival_time = payload["arrival_time"]
            size = payload["size"]
            if type(query_id) is int and type(size) is int and type(arrival_time) is float:
                return Query(query_id, arrival_time, size)
            if isinstance(query_id, (bool, float)) or isinstance(size, (bool, float)):
                raise TypeError("query_id and size must be integers")
            if isinstance(arrival_time, bool):
                raise TypeError("arrival_time must be a number")
            return Query(int(query_id), float(arrival_time), int(size))
        fields = text.split(",")
        if len(fields) == 3:
            return Query(
                query_id=int(fields[0]),
                arrival_time=float(fields[1]),
                size=int(fields[2]),
            )
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"unparseable event line: {text!r}")


def outcome(parse, line):
    """What ``parse`` makes of ``line``: fields with their exact types and bits."""
    try:
        query = parse(line)
    except ValueError as error:
        return ("ValueError", str(error))
    if query is None:
        return None
    fields = (query.query_id, query.arrival_time, query.size)
    return tuple(type(value) for value in fields), (
        query.query_id, query.arrival_time.hex(), query.size
    )


def assert_same(line):
    assert outcome(parse_event, line) == outcome(oracle_parse_event, line), line


def make_pipeline(window_s=2.0):
    twin = DigitalTwin(
        real=REAL, sla_latency_s=0.1, load_generator=LoadGenerator(seed=5),
        search_num_queries=80, search_iterations=3, search_max_queries=240,
    )
    return IngestPipeline(WindowManager(window_s=window_s), twin)


def event_lines(count=200, rate_qps=60.0, seed=3):
    return [
        json.dumps({"query_id": q.query_id, "arrival_time": q.arrival_time, "size": q.size})
        for q in LoadGenerator(seed=seed).with_rate(rate_qps).generate(count)
    ]


# --------------------------------------------------------------------------- #
# Differential parse test
# --------------------------------------------------------------------------- #

EVENT = '{"query_id": 1, "arrival_time": 0.5, "size": 3}'

#: Lines the two parsers could plausibly read differently.
CORPUS = [
    EVENT,
    '{"query_id": 1, "arrival_time": NaN, "size": 3}',
    '{"query_id": 1, "arrival_time": Infinity, "size": 3}',
    '{"query_id": 1, "arrival_time": -Infinity, "size": 3}',
    '{"query_id": 1, "arrival_time": 1e400, "size": 3}',
    '{"query_id": 1, "arrival_time": -0.0, "size": 3}',
    '{"query_id": 1, "arrival_time": -0, "size": 3}',
    '{"query_id": 01, "arrival_time": 0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": 00.5, "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 03}',
    EVENT + "x",
    EVENT + EVENT,
    EVENT + " " + EVENT,
    EVENT + "\t}",
    EVENT + " ,",
    "\ufeff" + EVENT,
    "  " + EVENT + " \r\n",
    '{"query_id": 1, "query_id": 2, "arrival_time": 0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 3, "size": 4}',
    '{"\\u0071uery_id": 1, "arrival_time": 0.5, "size": 3}',
    '{"query_id": true, "arrival_time": 0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": false, "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": true}',
    '{"query_id": 1, "arrival_time": 0.5, "size": null}',
    '{"query_id": 1.0, "arrival_time": 0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 3.0}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 3e0}',
    '{"query_id": 1, "arrival_time": 2, "size": 3}',
    '{"query_id": ' + "1" * 4301 + ', "arrival_time": 0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": ' + "1" * 4301 + ', "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": ' + "1" * 5000 + "}",
    "1" * 4301 + ",0.5,3",
    "1,0.5," + "1" * 5000,
    "[1,2,3]",
    "1,2,3",
    "1, 2.5 ,3",
    "1,nan,3",
    "1,-0.0,3",
    "-1,0.5,3",
    "1,0.5,0",
    '{"query_id": -1, "arrival_time": 0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": -0.5, "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 0}',
    '{"query_id": 1, "arrival_time": 0.5}',
    '{"query_id": 1, "arrival_time": [0.5], "size": 3}',
    '{"query_id": 1, "arrival_time": "0.5", "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 3',
    '{"query_id": 1, "arrival_time": x, "size": 3}',
    '{"query_id": 1, "arrival_time": 0.5, "size": 3,}',
    "{}",
    "{",
    "{]",
    '{"query_id": "\\ud800", "arrival_time": 0.5, "size": 3}',
    '{"query_id\x00": 1, "arrival_time": 0.5, "size": 3}',
    "",
    "# comment",
    "   ",
]


@pytest.mark.parametrize("line", CORPUS)
def test_corpus_parses_as_the_oracle_does(line):
    assert_same(line)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
field_values = {
    "query_id": st.integers(-5, 10**12) | json_values,
    "arrival_time": st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-5, 10**6)
    | json_values,
    "size": st.integers(-5, 4096) | json_values,
}


@st.composite
def json_lines(draw):
    payload = {}
    for key in draw(st.permutations(list(field_values))):
        if draw(st.integers(0, 9)):  # now and then, a key is missing
            payload[key] = draw(field_values[key])
    payload.update(draw(st.dictionaries(st.text(max_size=4), json_values, max_size=2)))
    separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,", " : ")]))
    text = json.dumps(payload, separators=separators, ensure_ascii=draw(st.booleans()))
    padding = st.sampled_from(["", " ", "\t", "\n", "\r\n", "x", " {}", "}", ",1"])
    return draw(padding.filter(str.isspace) | st.just("")) + text + draw(padding)


@st.composite
def csv_lines(draw):
    number = (
        st.integers(-5, 10**12).map(str)
        | st.floats(allow_nan=True, allow_infinity=True).map(repr)
        | st.sampled_from(["", " ", "1e400", "-0.0", "01", "0x1", "1_000", "true"])
    )
    fields = draw(st.lists(number, min_size=2, max_size=4))
    return ",".join(fields)


class TestDifferentialParse:
    @SETTINGS
    @given(line=json_lines())
    def test_generated_json_lines(self, line):
        assert_same(line)

    @SETTINGS
    @given(line=csv_lines())
    def test_generated_csv_lines(self, line):
        assert_same(line)

    @SETTINGS
    @given(
        query_id=st.integers(0, 2**63),
        arrival_time=st.floats(0.0, 1e9, allow_nan=False),
        size=st.integers(1, 10**6),
    )
    def test_valid_events_in_both_forms(self, query_id, arrival_time, size):
        json_line = json.dumps(
            {"query_id": query_id, "arrival_time": arrival_time, "size": size}
        )
        csv_line = f"{query_id},{arrival_time!r},{size}"
        assert_same(json_line)
        assert_same(csv_line)
        assert parse_event(json_line) == parse_event(csv_line)

    @SETTINGS
    @given(tail=st.text(max_size=40))
    def test_arbitrary_text_after_a_brace(self, tail):
        assert_same("{" + tail)


# --------------------------------------------------------------------------- #
# Deep nesting is a malformed line
# --------------------------------------------------------------------------- #

DEEP = '{"query_id": ' + "[" * 1000 + "]" * 1000 + ', "arrival_time": 0.5, "size": 3}'


class TestDeepNesting:
    def test_parse_event_counts_it_malformed(self):
        assert len(DEEP) < 2100
        with pytest.raises(ValueError, match="unparseable"):
            parse_event(DEEP)

    def test_deep_object_nesting_too(self):
        line = '{"query_id": ' + '{"a": ' * 5000 + "1" + "}" * 5000 + "}"
        with pytest.raises(ValueError, match="unparseable"):
            parse_event(line)

    def test_pipeline_keeps_windowing_after_it(self):
        pipeline = make_pipeline()
        assert pipeline.feed_line("0,0.5,16") == []
        assert pipeline.feed_line(DEEP) == []
        assert pipeline.malformed_lines == 1
        # A well-formed line afterwards still lands in a window and closes [0, 2).
        reports = pipeline.feed_line('{"query_id": 2, "arrival_time": 5.0, "size": 16}')
        assert [report.window.index for report in reports] == [0]
        assert pipeline.windows.accepted_events == 2
        assert len(pipeline.finish()) == 1
        assert pipeline.twin.cumulative_queries == 2


# --------------------------------------------------------------------------- #
# The call chain the benchmark's tracer wraps
# --------------------------------------------------------------------------- #


class TestIngestCallChain:
    def count_calls(self, monkeypatch):
        calls = {"parse_event": 0, "add": 0}
        original_parse, original_add = ingest.parse_event, WindowManager.add

        def counted_parse(line):
            calls["parse_event"] += 1
            return original_parse(line)

        def counted_add(manager, query):
            calls["add"] += 1
            return original_add(manager, query)

        monkeypatch.setattr(ingest, "parse_event", counted_parse)
        monkeypatch.setattr(WindowManager, "add", counted_add)
        return calls

    def test_one_parse_per_line_and_one_add_per_event(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        events = event_lines()
        lines = events[:100] + ["# comment", "", "not an event", DEEP] + events[100:]
        pipeline = make_pipeline()
        for line in lines[:50]:
            pipeline.feed_line(line)
        pipeline.feed_lines(lines[50:])
        pipeline.finish()
        assert calls == {"parse_event": len(lines), "add": len(events)}
        assert pipeline.malformed_lines == 2
        assert pipeline.twin.cumulative_queries == len(events)

    def test_parsed_events_run_through_the_cluster_simulator(self):
        lines = event_lines()
        pipeline = make_pipeline()
        pipeline.feed_lines(lines)
        pipeline.finish()
        queries = [parse_event(line) for line in lines]
        assert all(type(query) is Query for query in queries)
        batch = ClusterSimulator(REAL.build_servers(), balancer=REAL.policy).run(queries)
        assert pipeline.twin.last_cumulative_result() == batch
