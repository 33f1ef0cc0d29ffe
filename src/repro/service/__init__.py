"""Digital-twin serving service: streaming windowed simulation.

Everything else in the repository answers capacity questions in batch — a
driver generates a trace, runs the simulator, prints a figure.  This package
turns the same simulator into a *digital twin* of a live fleet:

* :mod:`repro.service.ingest` accepts live query events (a TCP line
  protocol, stdin, or an in-process replay — the broker is deliberately
  trivial);
* :mod:`repro.service.windows` aggregates events into fixed event-time
  windows with a configurable watermark/lateness policy;
* :mod:`repro.service.twin` feeds each closed window into one resumable
  event loop per fleet (:meth:`~repro.serving.cluster.ClusterSimulator.stream`),
  reports the cumulative measurement of the stream so far, and predicts
  fleet capacity via the memoised
  :class:`~repro.runtime.capacity.CapacitySearch`;
* :mod:`repro.service.shadow` maintains an operator-supplied "what-if" fleet
  configuration side by side with the real one, so a config change is
  evaluated in shadow mode — against live traffic — before rollout.

``python -m repro.service`` is the long-running entry point; see
``docs/architecture.md`` for how the service layer sits on the rest of the
stack.
"""

from repro.service.ingest import IngestPipeline, parse_event
from repro.service.shadow import (
    ConfigVerdict,
    FleetSpec,
    ShadowVerdict,
    compare_verdicts,
    load_fleet_spec,
)
from repro.service.twin import DigitalTwin, TwinWindowReport
from repro.service.windows import Window, WindowManager

__all__ = [
    "ConfigVerdict",
    "DigitalTwin",
    "FleetSpec",
    "IngestPipeline",
    "ShadowVerdict",
    "TwinWindowReport",
    "Window",
    "WindowManager",
    "compare_verdicts",
    "load_fleet_spec",
    "parse_event",
]
