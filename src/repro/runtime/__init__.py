"""Shared runtime for parallel work: one worker pool, one capacity search.

``repro.runtime`` is the subsystem every parallel consumer in the repository
routes through:

* :mod:`repro.runtime.pool` — :class:`WorkerPool`, a lazily-forked,
  reusable, nesting-safe process pool; :func:`shared_pool` scopes one pool
  to a whole CLI invocation and :func:`pool_scope` is how library code picks
  it up.
* :mod:`repro.runtime.capacity` — :class:`CapacitySearch`, the one
  single-server / fleet capacity search: a serial bisection
  (:class:`BisectionMachine`) with schema-versioned warm-start replay
  (:class:`CapacityCache`) decision-identical to the cold search;
  :func:`run_capacity_searches` runs many searches as one pool task each.
* :mod:`repro.runtime.remote` — :class:`RemoteWorkerPool`, the same
  futures surface executed by a fleet of worker processes on other hosts
  (``python -m repro.runtime.remote worker``), with heartbeat liveness,
  lease reassignment, and local-fallback degradation.

The figure drivers and tuners, the experiment ``SweepRunner``, and the
replay fans are all thin layers over these two primitives.
"""

from repro.runtime.pool import (
    Future,
    TaskContext,
    WorkerPool,
    active_pool,
    as_completed,
    in_worker,
    pool_forks,
    pool_scope,
    shared_pool,
)

#: Names served lazily from :mod:`repro.runtime.capacity`.
_CAPACITY_NAMES = (
    "BisectionMachine",
    "CapacityCache",
    "CapacityResult",
    "CapacitySearch",
    "CAPACITY_SCHEMA_VERSION",
    "run_capacity_searches",
)

__all__ = [
    "Future",
    "TaskContext",
    "WorkerPool",
    "active_pool",
    "as_completed",
    "in_worker",
    "pool_forks",
    "pool_scope",
    "shared_pool",
    "BisectionMachine",
    "CapacityCache",
    "CapacityResult",
    "CapacitySearch",
    "CAPACITY_SCHEMA_VERSION",
    "run_capacity_searches",
    "RemoteWorkerPool",
]


def __getattr__(name):
    # CapacitySearch pulls in the serving stack; import it lazily so
    # `repro.runtime.pool` stays importable from anywhere (including the
    # serving modules themselves) without a cycle.  RemoteWorkerPool is
    # lazy for the same reason (its cache sync touches serving).
    if name in _CAPACITY_NAMES:
        from repro.runtime import capacity

        return getattr(capacity, name)
    if name == "RemoteWorkerPool":
        from repro.runtime.remote import RemoteWorkerPool

        return RemoteWorkerPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
