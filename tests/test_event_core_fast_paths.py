"""The event core's shortcuts against the general paths they stand in for.

* **Direct start** — a healthy fleet's arrival that fits one unoffloaded CPU
  request is started (or queued) by :meth:`EventLoop._advance` itself.  The
  same arrivals fed once that way and once through
  :meth:`ServerKernel.submit` must leave identical kernels, heap and load
  vector.
* **Failure-aware routing** — :class:`FailureAwareBalancer` reads its health
  view once per ``observe_health``; its choices must equal a per-call scan
  of the live view, the balancer's original form, kept below as the
  reference.
* **Fault tracks** — :class:`FaultInjector` drops a query's track once the
  query is resolved and no attempt of it runs, so a finished faulted run
  holds none, with results equal to the pinned goldens.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_event_loop_golden import CASES, EXPECTED, pin

from repro.execution.engine import EnginePair, build_engine_pair
from repro.execution.scaled_engine import ScaledCPUEngine
from repro.faults import CrashWindow, FaultPlan, NodeFaultSchedule, NodeHealth, RetryPolicy
from repro.faults import StragglerEpisode
from repro.queries.generator import LoadGenerator
from repro.queries.query import arrival_rows
from repro.queries.size_dist import FixedQuerySizes
from repro.serving import cluster
from repro.serving.cluster import (
    ClusterSimulator,
    FailureAwareBalancer,
    available_balancers,
    get_balancer,
    homogeneous_fleet,
)
from repro.serving.simulator import (
    EventLoop,
    ServingConfig,
    _QueryState,
    build_kernels,
    resolve_num_cores,
)

_ENGINES = {
    "cpu": build_engine_pair("dlrm-rmc1", "skylake", None),
    "gpu": build_engine_pair("dlrm-rmc1", "skylake", "gtx1080ti"),
}


# --------------------------------------------------------------------------- #
# Direct start
# --------------------------------------------------------------------------- #


@st.composite
def server_specs(draw):
    """``(engines, config)`` of one server: CPU-only, scaled, or offloading."""
    batch_size = draw(st.sampled_from((16, 64, 100, 256, 512)))
    num_cores = draw(st.integers(1, 8))
    threshold = None
    if draw(st.booleans()):
        engines = _ENGINES["gpu"]
        threshold = draw(st.one_of(st.none(), st.integers(20, 600)))
    else:
        engines = _ENGINES["cpu"]
        speed = draw(st.sampled_from((1.0, 0.9, 1.25)))
        if speed != 1.0:
            engines = EnginePair(cpu=ScaledCPUEngine(engines.cpu, speed), gpu=None)
    config = ServingConfig(
        batch_size=batch_size, num_cores=num_cores, offload_threshold=threshold
    )
    return engines, config


def kernel_state(kernel):
    """Everything a submission or a completion can change on one kernel."""
    return (
        [
            (ordinal, (state.row, state.outstanding_requests))
            if type(state) is _QueryState
            else (ordinal, state)
            for ordinal, state in kernel._states.items()
        ],
        list(kernel._cpu_queue),
        list(kernel._gpu_queue),
        kernel._busy_cores,
        kernel._gpu_busy,
        kernel.cpu_busy_time,
        kernel.gpu_busy_time,
        kernel.total_items,
        kernel.gpu_items,
        kernel.num_submitted,
    )


def loop_state(loop: EventLoop):
    return (
        [kernel_state(kernel) for kernel in loop.kernels],
        list(loop._loads),
        sorted(loop._events),
    )


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(server_specs(), min_size=1, max_size=3),
    policy=st.sampled_from(available_balancers()),
    rate=st.sampled_from((300.0, 1500.0, 6000.0)),
    count=st.integers(30, 160),
    seed=st.integers(0, 2**16),
    batches=st.integers(1, 4),
    scales=st.lists(st.sampled_from((1.0, 1.5, 3.0)), min_size=4, max_size=4),
)
def test_direct_start_matches_submit(specs, policy, rate, count, seed, batches, scales):
    rows = arrival_rows(LoadGenerator(seed=seed).with_rate(rate).generate(count))
    cores = [resolve_num_cores(engines, config) for engines, config in specs]

    def build(direct: bool) -> EventLoop:
        kernels = build_kernels(
            [(engines, config, n) for (engines, config), n in zip(specs, cores)]
        )
        if not direct:
            for kernel in kernels:
                kernel._direct_limit = 0  # every arrival through submit()
        balancer = get_balancer(policy, seed=seed)
        balancer.reset(len(kernels))
        return EventLoop(kernels, 0.1, choose=balancer.choose)

    direct, general = build(True), build(False)
    size = -(-len(rows) // batches)
    for number, start in enumerate(range(0, len(rows), size)):
        batch = rows[start : start + size]
        for loop in (direct, general):
            # A straggler episode on server 0 from this batch on.
            loop.kernels[0].service_scale = scales[number]
            loop.feed(batch)
        assert loop_state(direct) == loop_state(general)
    assert direct.fork().finish() == general.fork().finish()


def test_direct_start_covers_starts_and_queues():
    # One 2-core server fed 64-item queries at a rate that keeps its queue
    # busy: every arrival takes the direct branch on one side, and some
    # start on a free core while others queue behind busy ones.
    engines, config = _ENGINES["cpu"], ServingConfig(batch_size=512, num_cores=2)
    generator = LoadGenerator(sizes=FixedQuerySizes(64), seed=3)
    rows = arrival_rows(generator.with_rate(30000.0).generate(300))
    loops = []
    for direct in (True, False):
        kernels = build_kernels([(engines, config, 2)])
        if not direct:
            kernels[0]._direct_limit = 0
        loops.append(EventLoop(kernels, 0.1))
    kernel = loops[0].kernels[0]
    queued = started = 0
    for ordinal, row in enumerate(rows):
        for loop in loops:
            loop.feed([row])
        if kernel._cpu_queue and kernel._cpu_queue[-1][0] == ordinal:
            queued += 1
        else:
            started += 1
        assert loop_state(loops[0]) == loop_state(loops[1])
    assert queued and started


# --------------------------------------------------------------------------- #
# Failure-aware routing
# --------------------------------------------------------------------------- #


class PerCallFailureAware:
    """The failure-aware balancer as it read its health view on every call."""

    def __init__(self) -> None:
        self._health: Optional[Sequence[NodeHealth]] = None

    def reset(self, num_servers: int) -> None:
        self._health = None

    def observe_health(self, health: Sequence[NodeHealth]) -> None:
        self._health = health

    def choose(self, loads: List[int]) -> int:
        health = self._health
        if health is None:
            return loads.index(min(loads))
        best_index = -1
        best_load = math.inf
        for index in range(len(loads)):
            node = health[index]
            if not node.up:
                continue
            load = loads[index] * node.slowdown
            if load < best_load:
                best_index = index
                best_load = load
        if best_index >= 0:
            return best_index
        return loads.index(min(loads))


_SLOWDOWNS = (1.0, 0.5, 2.0, 3.0, 4.0)

#: One step: route a load vector, change one node's health, or reset.
_steps = st.one_of(
    st.tuples(st.just("route"), st.lists(st.integers(0, 8), min_size=6, max_size=6)),
    st.tuples(st.just("crash"), st.integers(0, 5)),
    st.tuples(st.just("recover"), st.integers(0, 5)),
    st.tuples(st.just("slow"), st.integers(0, 5), st.sampled_from(_SLOWDOWNS)),
    st.tuples(st.just("reset")),
)


@settings(max_examples=300, deadline=None)
@given(num_nodes=st.integers(1, 6), steps=st.lists(_steps, max_size=40))
def test_failure_aware_matches_per_call_scan(num_nodes, steps):
    balancer, reference = FailureAwareBalancer(), PerCallFailureAware()
    health = [NodeHealth() for _ in range(num_nodes)]
    for both in (balancer, reference):
        both.reset(num_nodes)
    for step in steps:
        kind = step[0]
        if kind == "route":
            loads = step[1][:num_nodes]
            assert balancer.choose(loads) == reference.choose(loads)
            continue
        if kind == "reset":
            for both in (balancer, reference):
                both.reset(num_nodes)
            continue
        node = health[step[1] % num_nodes]
        if kind == "crash":
            node.up = False
        elif kind == "recover":
            node.up = True
        else:
            node.slowdown = step[2]
        # As FaultInjector._apply does: mutate in place, then observe.
        for both in (balancer, reference):
            both.observe_health(health)


@pytest.mark.parametrize(
    "up, slowdowns, loads, expected",
    [
        pytest.param([True] * 4, [1.0] * 4, [3, 1, 1, 2], 1, id="nominal-tie"),
        pytest.param([True] * 3, [2.0, 1.0, 1.0], [2, 4, 4], 0, id="weighted-tie"),
        pytest.param([False, True, True], [1.0, 1.0, 3.0], [0, 5, 1], 2, id="down-skipped"),
        pytest.param([False] * 3, [1.0, 2.0, 1.0], [4, 2, 2], 1, id="fleet-down"),
    ],
)
def test_failure_aware_pinned_choices(up, slowdowns, loads, expected):
    health = [NodeHealth(up=u, slowdown=s) for u, s in zip(up, slowdowns)]
    reference = PerCallFailureAware()
    reference.observe_health(health)
    balancer = FailureAwareBalancer()
    balancer.observe_health(health)
    assert balancer.choose(loads) == reference.choose(loads) == expected


# --------------------------------------------------------------------------- #
# Fault tracks
# --------------------------------------------------------------------------- #


@contextmanager
def recorded_injectors() -> Iterator[List[cluster.FaultInjector]]:
    """Every :class:`FaultInjector` the cluster simulator builds meanwhile."""
    built: List[cluster.FaultInjector] = []
    original = cluster.FaultInjector

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    cluster.FaultInjector = recording
    try:
        yield built
    finally:
        cluster.FaultInjector = original


@pytest.mark.parametrize(
    "name", sorted(name for name in CASES if name.startswith("faults-"))
)
def test_finished_faulted_runs_hold_no_tracks(name):
    with recorded_injectors() as built:
        result = CASES[name]()
    assert pin(result) == EXPECTED[name]
    (injector,) = built
    assert injector.tracked == {}


@settings(max_examples=25, deadline=None)
@given(
    crashes=st.lists(
        st.tuples(st.integers(0, 2), st.floats(0.0, 0.8), st.floats(0.02, 0.3)),
        min_size=1,
        max_size=4,
    ),
    max_retries=st.integers(0, 3),
    hedge=st.booleans(),
    policy=st.sampled_from(("least-outstanding", "failure-aware", "round-robin")),
    seed=st.integers(0, 2**16),
)
def test_random_crash_storms_hold_no_tracks(crashes, max_retries, hedge, policy, seed):
    queries = LoadGenerator(seed=seed).with_rate(1000.0).generate(600)
    horizon = queries[-1].arrival_time
    windows: dict = {}
    for node, start, length in crashes:
        windows.setdefault(node, []).append((start * horizon, (start + length) * horizon))
    nodes = {}
    for node, spans in windows.items():
        merged: list = []
        for start, end in sorted(spans):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(end, merged[-1][1]))
            else:
                merged.append((start, end))
        nodes[node] = NodeFaultSchedule(
            crashes=tuple(CrashWindow(start, end) for start, end in merged),
            stragglers=(
                (StragglerEpisode(0.2 * horizon, 0.5 * horizon, slowdown=3.0),)
                if node == 1
                else ()
            ),
        )
    fleet = homogeneous_fleet(
        _ENGINES["cpu"], ServingConfig(batch_size=256, num_cores=4), 3
    )
    simulator = ClusterSimulator(
        fleet,
        policy,
        warmup_fraction=0.0,
        fault_plan=FaultPlan(nodes=nodes),
        retry_policy=RetryPolicy(
            max_retries=max_retries, hedge=hedge, detect_delay_s=0.01
        ),
    )
    with recorded_injectors() as built:
        result = simulator.run(queries)
    (injector,) = built
    assert injector.tracked == {}
    # Every query either completed or failed, exactly once.
    assert len(result.latencies_s) + result.failed_queries == len(queries)
