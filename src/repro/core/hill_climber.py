"""Generic hill-climbing optimiser used by DeepRecSched.

Section IV-C observes that the QPS-vs-batch-size and QPS-vs-offload-threshold
surfaces are smooth enough that a simple hill climber finds the optimum: start
from the smallest candidate, keep moving to the next larger candidate while
the objective improves, and stop after the objective degrades ``patience``
times in a row.  The climb is sequential: each candidate is evaluated only
once the climb has decided to visit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, List, Mapping, Sequence, Tuple, TypeVar

from repro.utils.validation import check_positive

CandidateT = TypeVar("CandidateT")


@dataclass
class ClimbResult(Generic[CandidateT]):
    """Outcome of one hill climb.

    Attributes
    ----------
    best_candidate:
        Candidate with the highest objective value among those evaluated.
    best_value:
        Objective value at ``best_candidate``.
    evaluations:
        Every candidate evaluated, in evaluation order, with its value.
    """

    best_candidate: CandidateT
    best_value: float
    evaluations: List[tuple]

    @property
    def num_evaluations(self) -> int:
        """Number of objective evaluations the climb performed."""
        return len(self.evaluations)

    def as_dict(self) -> Dict[CandidateT, float]:
        """Evaluated candidates mapped to their objective values."""
        return dict(self.evaluations)


def hill_climb(
    candidates: Sequence[CandidateT],
    objective: Callable[[CandidateT], float],
    patience: int = 2,
    relative_tolerance: float = 0.0,
) -> ClimbResult:
    """Walk ``candidates`` in order while ``objective`` keeps improving.

    Parameters
    ----------
    candidates:
        Ordered candidate values (e.g. increasing batch sizes).
    objective:
        Function to maximise.
    patience:
        Number of consecutive non-improving candidates tolerated before
        stopping.  ``patience=1`` stops at the first degradation (the paper's
        description); the default of 2 is slightly more robust to simulator
        noise.
    relative_tolerance:
        A candidate counts as improving if it exceeds the best value by more
        than this relative margin.
    """
    if not candidates:
        raise ValueError("candidates must not be empty")
    check_positive("patience", patience)
    if relative_tolerance < 0:
        raise ValueError(f"relative_tolerance must be >= 0, got {relative_tolerance}")

    evaluations: List[tuple] = []
    best_candidate = candidates[0]
    best_value = objective(best_candidate)
    evaluations.append((best_candidate, best_value))
    misses = 0

    for candidate in candidates[1:]:
        value = objective(candidate)
        evaluations.append((candidate, value))
        if value > best_value * (1.0 + relative_tolerance):
            best_candidate, best_value = candidate, value
            misses = 0
        elif best_value > 0:
            # Only count non-improving steps against the patience budget once a
            # feasible (positive-objective) operating point has been found;
            # otherwise an infeasible low end of the candidate range (e.g.
            # batch sizes too small to meet a tight SLA at all) would stop the
            # climb before it ever reaches the feasible region.
            misses += 1
            if misses >= patience:
                break
    return ClimbResult(
        best_candidate=best_candidate, best_value=best_value, evaluations=evaluations
    )


@dataclass
class DescentResult:
    """Outcome of one coordinate descent over several named knobs.

    Attributes
    ----------
    best_knobs:
        Knob assignment with the highest objective value found.
    best_value:
        Objective value at ``best_knobs``.
    evaluations:
        Every distinct knob assignment evaluated, in evaluation order.
    """

    best_knobs: Dict[str, Any]
    best_value: float
    evaluations: List[Tuple[Dict[str, Any], float]]

    @property
    def num_evaluations(self) -> int:
        """Number of distinct objective evaluations performed."""
        return len(self.evaluations)


def coordinate_descent(
    candidates_by_knob: Mapping[str, Sequence[Any]],
    objective: Callable[[Dict[str, Any]], float],
    sweeps: int = 2,
    patience: int = 2,
    relative_tolerance: float = 0.0,
) -> DescentResult:
    """Maximise ``objective`` over several knobs, one knob at a time.

    Each sweep runs :func:`hill_climb` along every knob's candidate list in
    turn, holding the other knobs at their current best values; sweeps stop
    early once a full pass yields no improvement.  This is the multi-knob
    generalisation of the DeepRecSched tuning loop and is what the fleet
    tuner uses to co-tune the per-server batch size with the balancing
    policy.  Assignments are memoised, so re-visiting a point costs nothing.

    Knob candidate values must be hashable (ints, strings, enums, ...).
    """
    if not candidates_by_knob:
        raise ValueError("candidates_by_knob must not be empty")
    for knob, candidates in candidates_by_knob.items():
        if not candidates:
            raise ValueError(f"knob {knob!r} has no candidates")
    check_positive("sweeps", sweeps)

    cache: Dict[Tuple, float] = {}
    evaluations: List[Tuple[Dict[str, Any], float]] = []

    def evaluate(knobs: Dict[str, Any]) -> float:
        key = tuple(sorted(knobs.items()))
        if key not in cache:
            value = objective(dict(knobs))
            cache[key] = value
            evaluations.append((dict(knobs), value))
        return cache[key]

    best_knobs = {knob: candidates[0] for knob, candidates in candidates_by_knob.items()}
    best_value = evaluate(best_knobs)

    for _ in range(sweeps):
        improved = False
        for knob, candidates in candidates_by_knob.items():
            climb = hill_climb(
                candidates,
                lambda candidate: evaluate({**best_knobs, knob: candidate}),
                patience=patience,
                relative_tolerance=relative_tolerance,
            )
            if climb.best_value > best_value * (1.0 + relative_tolerance):
                best_value = climb.best_value
                best_knobs = {**best_knobs, knob: climb.best_candidate}
                improved = True
        if not improved:
            break
    return DescentResult(
        best_knobs=best_knobs, best_value=best_value, evaluations=evaluations
    )


def power_of_two_candidates(minimum: int, maximum: int) -> List[int]:
    """Powers of two in ``[minimum, maximum]``, always including both ends."""
    check_positive("minimum", minimum)
    check_positive("maximum", maximum)
    if maximum < minimum:
        raise ValueError(f"maximum {maximum} < minimum {minimum}")
    values = []
    value = 1
    while value <= maximum:
        if value >= minimum:
            values.append(value)
        value *= 2
    if not values or values[0] != minimum:
        values.insert(0, minimum)
    if values[-1] != maximum:
        values.append(maximum)
    return values
