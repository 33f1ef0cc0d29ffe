"""Shadow-mode fleet configurations and real-vs-what-if verdicts.

The digital twin runs **two** fleet configurations against the same live
stream: the *real* config (what the fleet actually runs) and an
operator-supplied *what-if* config (what the operator is considering rolling
out).  This module holds the pieces that make that comparison concrete:

* :class:`FleetSpec` — a declarative, JSON-serialisable description of a
  homogeneous fleet (model, platform, size, scheduling knobs, balancing
  policy) that the service can build simulators and capacity searches from.
  ``--what-if-config`` on the CLI is a JSON file in exactly this shape;
* :class:`ConfigVerdict` — one config's per-window outcome: measured p95
  against the SLA, stability, predicted capacity, and headroom;
* :func:`compare_verdicts` — the shadow-mode comparison itself, flagging
  *divergence*: the what-if config failing (or newly passing) the SLA while
  the real config does the opposite, evaluated on identical traffic before
  any rollout.

>>> spec = FleetSpec(name="real", model="ncf", platform="broadwell",
...                  num_servers=2, batch_size=128, num_cores=4)
>>> FleetSpec.from_dict(spec.to_dict()) == spec
True
>>> green = ConfigVerdict(config="real", p95_latency_s=0.04, sla_latency_s=0.1,
...                       meets_sla=True, stable=True, capacity_qps=5000.0,
...                       offered_qps=1000.0, evaluations=6)
>>> red = ConfigVerdict(config="what-if", p95_latency_s=0.35, sla_latency_s=0.1,
...                     meets_sla=False, stable=False, capacity_qps=600.0,
...                     offered_qps=1000.0, evaluations=6)
>>> verdict = compare_verdicts(green, red)
>>> verdict.diverged
True
>>> print(verdict.describe())
DIVERGED: what-if violates the 100.0 ms SLA (p95 350.0 ms) while real is green
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.execution.engine import EnginePair, build_cpu_engine
from repro.serving.cluster import ClusterServer, available_balancers, homogeneous_fleet
from repro.serving.simulator import ServingConfig
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of one homogeneous fleet configuration.

    The twin holds one spec per side (real / what-if).  Specs are plain
    data: they round-trip through JSON (:meth:`to_dict` / :meth:`from_dict`),
    and :meth:`build_servers` materialises the actual
    :class:`~repro.serving.cluster.ClusterServer` fleet on demand.
    """

    name: str
    model: str
    num_servers: int
    batch_size: int
    platform: str = "skylake"
    num_cores: int = 0
    policy: str = "least-outstanding"

    def __post_init__(self) -> None:
        check_positive("num_servers", self.num_servers)
        check_positive("batch_size", self.batch_size)
        if self.num_cores < 0:
            raise ValueError(f"num_cores must be >= 0, got {self.num_cores}")
        if self.policy not in available_balancers():
            raise ValueError(
                f"unknown balancing policy {self.policy!r}; "
                f"available: {available_balancers()}"
            )

    def serving_config(self) -> ServingConfig:
        """The per-server scheduling configuration this spec describes."""
        return ServingConfig(batch_size=self.batch_size, num_cores=self.num_cores)

    def build_servers(self, engines: Optional[EnginePair] = None) -> List[ClusterServer]:
        """Materialise the fleet (building the CPU engine unless provided)."""
        if engines is None:
            engines = EnginePair(cpu=build_cpu_engine(self.model, self.platform), gpu=None)
        return homogeneous_fleet(engines, self.serving_config(), self.num_servers)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (the ``--what-if-config`` shape)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], name: str = "") -> "FleetSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        data = dict(payload)
        if name and "name" not in data:
            data["name"] = name
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fleet-spec keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)


def load_fleet_spec(path: Union[str, Path], name: str = "what-if") -> FleetSpec:
    """Load a :class:`FleetSpec` from a JSON file (the CLI's what-if config)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"fleet spec {path} must be a JSON object")
    return FleetSpec.from_dict(payload, name=name)


# --------------------------------------------------------------------------- #
# Verdicts
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConfigVerdict:
    """One fleet config's outcome for one closed window.

    ``p95_latency_s`` and ``stable`` come from the cumulative measurement
    of the stream so far; ``capacity_qps`` from the (memoised) capacity
    search; ``offered_qps`` is the window's observed arrival rate.
    """

    config: str
    p95_latency_s: float
    sla_latency_s: float
    meets_sla: bool
    stable: bool
    capacity_qps: float
    offered_qps: float
    evaluations: int

    @property
    def green(self) -> bool:
        """SLA met and no instability — the config passes this window."""
        return self.meets_sla and self.stable

    @property
    def headroom(self) -> float:
        """Predicted capacity over the window's offered rate (0 if idle)."""
        if self.offered_qps <= 0:
            return 0.0
        return self.capacity_qps / self.offered_qps

    def status(self) -> str:
        """``"green"`` or ``"RED"`` — the one-glance SLA verdict."""
        return "green" if self.green else "RED"


@dataclass(frozen=True)
class ShadowVerdict:
    """The shadow-mode comparison of one window's real and what-if verdicts."""

    real: ConfigVerdict
    what_if: ConfigVerdict

    @property
    def diverged(self) -> bool:
        """True when exactly one side passes the window."""
        return self.real.green != self.what_if.green

    @property
    def p95_delta_s(self) -> float:
        """What-if p95 minus real p95 (positive: what-if is slower)."""
        return self.what_if.p95_latency_s - self.real.p95_latency_s

    @property
    def capacity_delta_qps(self) -> float:
        """What-if capacity minus real capacity (negative: capacity lost)."""
        return self.what_if.capacity_qps - self.real.capacity_qps

    def describe(self) -> str:
        """One-line human verdict for logs and reports."""
        sla_ms = self.real.sla_latency_s * 1e3
        if not self.diverged:
            state = "both green" if self.real.green else "both RED"
            return (
                f"aligned ({state}): p95 delta {self.p95_delta_s * 1e3:+.1f} ms, "
                f"capacity delta {self.capacity_delta_qps:+.0f} qps"
            )
        if self.real.green:
            return (
                f"DIVERGED: {self.what_if.config} violates the {sla_ms:.1f} ms SLA "
                f"(p95 {self.what_if.p95_latency_s * 1e3:.1f} ms) while "
                f"{self.real.config} is green"
            )
        return (
            f"DIVERGED: {self.what_if.config} meets the {sla_ms:.1f} ms SLA "
            f"while {self.real.config} is RED "
            f"(p95 {self.real.p95_latency_s * 1e3:.1f} ms)"
        )


def compare_verdicts(real: ConfigVerdict, what_if: ConfigVerdict) -> ShadowVerdict:
    """Compare one window's verdicts; see :class:`ShadowVerdict`."""
    return ShadowVerdict(real=real, what_if=what_if)
