"""Serial reference bisection: the oracle for :class:`BisectionMachine`.

The capacity search runs its bisection as an explicit decision machine
(:class:`repro.runtime.capacity.BisectionMachine`), driven one rate at a
time wherever the search runs.  This module
keeps the plain loop that machine was factored out of — deliberately
simple, no state machine and no scheduling — so tests can check that the
machine consumes exactly its rate sequence and reaches its answer.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime.capacity import CapacityResult
from repro.utils.validation import check_positive


def bisect_max_qps(
    evaluate: Callable[[float], Any],
    upper_qps: float,
    sla_latency_s: float,
    iterations: int,
) -> CapacityResult:
    """Bisection search over offered load for the largest acceptable rate.

    ``evaluate(rate_qps)`` must run the system at that offered load and
    return a result exposing ``acceptable(sla_latency_s)`` (any of the
    simulation result types qualifies).  ``upper_qps`` is an optimistic
    starting bracket; if the system still meets the SLA there, the bracket is
    raised before bisecting.
    """
    check_positive("sla_latency_s", sla_latency_s)
    check_positive("iterations", iterations)
    check_positive("upper_qps", upper_qps)
    evals = 0

    upper = upper_qps
    # Make sure the bracket actually contains the SLA boundary: if the upper
    # bound still meets the SLA, raise it.
    for _ in range(3):
        at_upper = evaluate(upper)
        evals += 1
        if not at_upper.acceptable(sla_latency_s):
            break
        upper *= 1.6
    else:
        # Even the top of the raised bracket sustains the SLA.  Measure at
        # the rate actually reported, so ``result`` always corresponds to
        # ``max_qps`` (and a warm-start replay of this search — one
        # evaluation at the recorded rate — reproduces it bit-identically).
        return CapacityResult(
            max_qps=upper,
            sla_latency_s=sla_latency_s,
            result=evaluate(upper),
            evaluations=evals + 1,
        )

    lower = upper / 64.0
    at_lower = evaluate(lower)
    evals += 1
    if not at_lower.acceptable(sla_latency_s):
        # Even a lightly loaded system misses the target: check near-zero load.
        trickle = max(lower / 16.0, 1e-3)
        at_trickle = evaluate(trickle)
        evals += 1
        if not at_trickle.acceptable(sla_latency_s):
            return CapacityResult(
                max_qps=0.0, sla_latency_s=sla_latency_s, result=None,
                evaluations=evals,
            )
        lower, at_lower = trickle, at_trickle

    best_rate, best_result = lower, at_lower
    for _ in range(iterations):
        middle = 0.5 * (lower + upper)
        outcome = evaluate(middle)
        evals += 1
        if outcome.acceptable(sla_latency_s):
            lower = middle
            best_rate, best_result = middle, outcome
        else:
            upper = middle
    return CapacityResult(
        max_qps=best_rate, sla_latency_s=sla_latency_s, result=best_result,
        evaluations=evals,
    )
