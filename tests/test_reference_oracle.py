"""Differential test: the production event loop against a naive reference.

``tests/reference_sim.py`` serves the same queries with one sorted event
list and scalar latency calls.  For random small fleets — 1-4 servers,
every registered balancer, per-server batch sizes, core counts, offload
thresholds with and without an accelerator, speed-scaled nodes, bursts of
simultaneous arrivals and straggler-only fault plans — every query must
complete at exactly the same instant in both, and the production run must
conserve work: every arrival is submitted to exactly one server, and no
server is busier than its cores can be over the run's span.  Generated
traces never put an arrival or a straggler transition exactly on a
completion instant, so a constructed chain checks those ties (completions
go first, then transitions, then arrivals) separately.  Crash and retry
semantics are pinned by
``tests/test_event_loop_golden.py`` and ``tests/test_faults.py``.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_sim
from repro.execution.engine import EnginePair, build_engine_pair
from repro.execution.scaled_engine import ScaledCPUEngine
from repro.faults import FaultPlan, NodeFaultSchedule, StragglerEpisode
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.serving import cluster, simulator
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulator,
    available_balancers,
    get_balancer,
)
from repro.serving.simulator import ServingConfig

_ENGINES = {
    "cpu": build_engine_pair("dlrm-rmc1", "skylake", None),
    "gpu": build_engine_pair("dlrm-rmc1", "skylake", "gtx1080ti"),
}


@st.composite
def servers(draw):
    """One server: CPU-only (possibly speed-scaled) or accelerator-attached."""
    batch_size = draw(st.sampled_from((16, 64, 100, 256, 512)))
    num_cores = draw(st.integers(1, 8))
    if draw(st.booleans()):
        engines = _ENGINES["gpu"]
        threshold = draw(st.one_of(st.none(), st.integers(50, 600)))
    else:
        engines = _ENGINES["cpu"]
        threshold = None
        speed = draw(st.sampled_from((1.0, 0.9, 1.25)))
        if speed != 1.0:
            engines = EnginePair(cpu=ScaledCPUEngine(engines.cpu, speed), gpu=None)
    config = ServingConfig(
        batch_size=batch_size, num_cores=num_cores, offload_threshold=threshold
    )
    return ClusterServer(engines=engines, config=config)


@st.composite
def straggler_plans(draw, num_servers: int, horizon: float):
    """``None`` or a plan of straggler episodes inside the trace."""
    if not draw(st.booleans()):
        return None
    nodes = {}
    for node in draw(st.sets(st.integers(0, num_servers - 1), min_size=1)):
        start = draw(st.floats(0.0, 0.8)) * horizon
        length = draw(st.floats(0.05, 0.5)) * horizon
        slowdown = draw(st.sampled_from((1.5, 3.0, 6.0)))
        nodes[node] = NodeFaultSchedule(
            stragglers=(StragglerEpisode(start, start + length, slowdown=slowdown),)
        )
    return FaultPlan(nodes=nodes)


@pytest.fixture
def completions(monkeypatch):
    """Record production completion instants as ``{arrival ordinal: time}``.

    Every event popped off the kernels' shared heap is a completion, by
    ``heappop`` or by the ``heapreplace`` that starts a queued request in
    its place; the last one popped for an ordinal is when that query
    finished, because straggler-only plans lose no work.  :func:`by_query_id`
    re-keys the record.  The kernels are captured as the cluster simulator
    builds them.
    """
    times = {}
    kernels = []
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    build_kernels = cluster.build_kernels

    def recording_pop(events):
        event = heappop(events)
        times[event[4]] = event[0]
        return event

    def recording_replace(events, item):
        event = heapreplace(events, item)
        times[event[4]] = event[0]
        return event

    def recording_build(specs):
        built = build_kernels(specs)
        kernels.extend(built)
        return built

    monkeypatch.setattr(
        simulator,
        "heapq",
        SimpleNamespace(
            heappop=recording_pop,
            heapreplace=recording_replace,
            heappush=heapq.heappush,
            heapify=heapq.heapify,
        ),
    )
    monkeypatch.setattr(cluster, "build_kernels", recording_build)
    return times, kernels


def by_query_id(times, queries):
    """``{ordinal: time}`` re-keyed by query id (ordinals follow arrival order)."""
    ordered = sorted(queries, key=lambda query: query.arrival_time)
    return {ordered[ordinal].query_id: time for ordinal, time in times.items()}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    fleet=st.lists(servers(), min_size=1, max_size=4),
    policy=st.sampled_from(available_balancers()),
    rate=st.sampled_from((300.0, 1500.0, 6000.0)),
    count=st.integers(40, 200),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_completion_times_match_reference(
    completions, fleet, policy, rate, count, seed, data
):
    times, kernels = completions
    times.clear()
    kernels.clear()
    queries = LoadGenerator(seed=seed).with_rate(rate).generate(count)
    if data.draw(st.booleans()):
        # Arrivals on a coarse clock: bursts of simultaneous arrivals.
        queries = [
            Query(q.query_id, round(q.arrival_time * 500.0) / 500.0, q.size)
            for q in queries
        ]
    plan = data.draw(straggler_plans(len(fleet), queries[-1].arrival_time))

    simulator = ClusterSimulator(
        fleet, get_balancer(policy, seed=seed), balancer_seed=seed, fault_plan=plan
    )
    result = simulator.run(queries)
    reference = reference_sim.simulate(
        simulator.servers,
        [server.config.num_cores for server in simulator.servers],
        get_balancer(policy, seed=seed),
        queries,
        plan,
    )

    assert by_query_id(times, queries) == reference.completion_time
    # Conservation: every arrival went to exactly one server ...
    assert sum(s.num_queries for s in result.per_server) == len(queries)
    assert [s.num_queries for s in result.per_server] == [
        node.submitted for node in reference.servers
    ]
    # ... and no server was busier than its cores over the run's span.
    span = result.duration_s
    for kernel in kernels:
        assert kernel.cpu_busy_time <= span * kernel.num_cores * (1 + 1e-12)
        assert kernel.gpu_busy_time <= span * (1 + 1e-12)


@pytest.mark.parametrize(
    "policy, straggler",
    [
        pytest.param("least-outstanding", False, id="least-outstanding"),
        pytest.param("power-of-two", False, id="power-of-two"),
        pytest.param("least-outstanding", True, id="least-outstanding-straggler"),
        pytest.param("power-of-two", True, id="power-of-two-straggler"),
    ],
)
def test_arrivals_on_completion_instants_match_reference(completions, policy, straggler):
    # Each arrival lands exactly on the previous query's completion instant,
    # so the balancer's view depends on completions going first at a tie.
    # With ``straggler``, a slowdown on every server starts on the instant
    # query 5 completes and ends on the instant query 11 completes, so both
    # fault transitions also tie with a completion and an arrival: the
    # completion goes first, then the transition, then the arrival (query 6
    # is the first slowed, query 12 the first back at full speed).
    times, _ = completions
    engines = _ENGINES["cpu"]
    config = ServingConfig(batch_size=256, num_cores=1)
    fleet = [ClusterServer(engines=engines, config=config) for _ in range(2)]
    slowdown, slowed = 3.0, range(6, 12)
    queries = []
    now = start = end = 0.0
    for query_id, size in enumerate([40, 200, 7, 128, 256, 90] * 5):
        queries.append(Query(query_id, now, size))
        service = engines.cpu.request_latency_s(size, 1)
        if straggler and query_id in slowed:
            service = service * slowdown
        now = now + service
        if query_id == slowed[0] - 1:
            start = now
        if query_id == slowed[-1]:
            end = now
    plan = None
    if straggler:
        episode = StragglerEpisode(start, end, slowdown=slowdown)
        plan = FaultPlan(
            nodes={node: NodeFaultSchedule(stragglers=(episode,)) for node in range(2)}
        )
    result = ClusterSimulator(fleet, policy, fault_plan=plan).run(queries)
    reference = reference_sim.simulate(
        fleet, [1, 1], get_balancer(policy), queries, plan
    )
    assert by_query_id(times, queries) == reference.completion_time
    assert [s.num_queries for s in result.per_server] == [
        node.submitted for node in reference.servers
    ]
