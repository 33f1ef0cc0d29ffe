"""A deliberately naive reference simulator for differential tests.

It models the same serving semantics as :func:`repro.serving.simulator.run_event_loop`
— a FIFO request queue per server shared by ``num_cores`` CPU cores, an
optional accelerator FIFO for whole queries above the offload threshold,
online balancing at each arrival, and straggler slowdowns — but with none
of the production machinery: one sorted list of events, scalar
``request_latency_s`` / ``query_latency_s`` calls instead of indexing
latency-table columns, no early-exit certificates, no warmup, no
statistics.  The only things it shares with the production code are the
engines (the latency model) and the balancer objects, which choose over the
reference's own load vector (each server's outstanding items).  The scalar
calls read the same cached columns the production loop indexes, so the
oracle checks event semantics, not pricing; ``tests/test_pricing_golden.py``
pins the prices.

Crash, retry and hedge semantics are not modelled here; straggler episodes
are.  Event order at one instant: CPU completions, accelerator completions,
fault transitions (in plan order), arrivals.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faults import FaultPlan, NodeHealth
from repro.faults.plan import KIND_CRASH, KIND_RECOVER, KIND_SLOW_ON
from repro.queries.query import Query
from repro.serving.cluster import ClusterServer, LoadBalancer

CPU_DONE, GPU_DONE, TRANSITION, ARRIVAL = range(4)


@dataclass
class ReferenceServer:
    """One server: its queues, busy cores and accounting."""

    cpu: object
    gpu: Optional[object]
    batch_size: int
    threshold: Optional[int]
    num_cores: int
    cpu_queue: List[tuple] = field(default_factory=list)  # (query, items)
    gpu_queue: List[Query] = field(default_factory=list)
    busy_cores: int = 0
    gpu_busy: bool = False
    scale: float = 1.0
    units_left: Dict[int, int] = field(default_factory=dict)
    submitted: int = 0
    cpu_busy_time: float = 0.0
    gpu_busy_time: float = 0.0


@dataclass
class ReferenceRun:
    """Per-query completion times plus each server's accounting."""

    completion_time: Dict[int, float]
    servers: List[ReferenceServer]
    first_arrival: float
    last_completion: float


def simulate(
    servers: Sequence[ClusterServer],
    num_cores: Sequence[int],
    balancer: LoadBalancer,
    queries: Sequence[Query],
    plan: Optional[FaultPlan] = None,
) -> ReferenceRun:
    """Serve ``queries`` on ``servers`` the slow, obvious way."""
    nodes = [
        ReferenceServer(
            cpu=server.engines.cpu,
            gpu=server.engines.gpu,
            batch_size=server.config.batch_size,
            threshold=(
                server.config.offload_threshold if server.engines.gpu is not None else None
            ),
            num_cores=cores,
        )
        for server, cores in zip(servers, num_cores)
    ]
    loads = [0] * len(nodes)  # outstanding items per server
    events: List[tuple] = []  # (time, kind, seq, payload), kept sorted
    seq = itertools.count()

    def push(time: float, kind: int, payload: tuple) -> None:
        bisect.insort(events, (time, kind, next(seq), payload))

    def start_cpu(index: int, now: float) -> None:
        node = nodes[index]
        while node.cpu_queue and node.busy_cores < node.num_cores:
            query, items = node.cpu_queue.pop(0)
            node.busy_cores += 1
            service = node.cpu.request_latency_s(items, node.busy_cores) * node.scale
            node.cpu_busy_time += service
            push(now + service, CPU_DONE, (index, query))

    def start_gpu(index: int, now: float) -> None:
        node = nodes[index]
        if node.gpu_busy or not node.gpu_queue:
            return
        query = node.gpu_queue.pop(0)
        node.gpu_busy = True
        service = node.gpu.query_latency_s(query.size) * node.scale
        node.gpu_busy_time += service
        push(now + service, GPU_DONE, (index, query))

    def submit(index: int, query: Query, now: float) -> None:
        node = nodes[index]
        node.submitted += 1
        loads[index] += query.size
        if node.threshold is not None and query.size > node.threshold:
            node.units_left[query.query_id] = 1
            node.gpu_queue.append(query)
            start_gpu(index, now)
            return
        full, remainder = divmod(query.size, node.batch_size)
        requests = [node.batch_size] * full + ([remainder] if remainder else [])
        node.units_left[query.query_id] = len(requests)
        node.cpu_queue.extend((query, items) for items in requests)
        start_cpu(index, now)

    completion_time: Dict[int, float] = {}

    def finish_unit(index: int, query: Query, now: float) -> None:
        node = nodes[index]
        node.units_left[query.query_id] -= 1
        if node.units_left[query.query_id] == 0:
            del node.units_left[query.query_id]
            loads[index] -= query.size
            completion_time[query.query_id] = now

    health = [NodeHealth() for _ in nodes]
    balancer.prepare(list(servers))
    balancer.reset(len(nodes))
    if plan is not None and not plan.is_empty():
        balancer.observe_health(health)
        for event in plan.events(len(nodes)):
            if event.kind in (KIND_CRASH, KIND_RECOVER):
                raise NotImplementedError("the reference models stragglers only")
            push(event.time_s, TRANSITION, (event,))
    for query in sorted(queries, key=lambda q: q.arrival_time):
        push(query.arrival_time, ARRIVAL, (query,))

    last_completion = first_arrival = min(q.arrival_time for q in queries)
    while events:
        now, kind, _, payload = events.pop(0)
        if kind == ARRIVAL:
            (query,) = payload
            submit(balancer.choose(loads), query, now)
        elif kind == TRANSITION:
            (event,) = payload
            slowdown = event.slowdown if event.kind == KIND_SLOW_ON else 1.0
            nodes[event.node].scale = slowdown
            health[event.node].slowdown = slowdown
            balancer.observe_health(health)
        elif kind == CPU_DONE:
            index, query = payload
            nodes[index].busy_cores -= 1
            finish_unit(index, query, now)
            start_cpu(index, now)
            last_completion = max(last_completion, now)
        else:  # GPU_DONE
            index, query = payload
            nodes[index].gpu_busy = False
            finish_unit(index, query, now)
            start_gpu(index, now)
            last_completion = max(last_completion, now)
    return ReferenceRun(completion_time, nodes, first_arrival, last_completion)
