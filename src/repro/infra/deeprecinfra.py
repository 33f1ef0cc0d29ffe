"""DeepRecInfra: the end-to-end modelling infrastructure (Fig. 8).

DeepRecInfra ties together the three components the paper identifies as
necessary for representative at-scale recommendation studies:

1. the suite of industry-representative recommendation models (Table I),
2. per-use-case SLA tail-latency targets (Table II, with Low/Medium/High
   tiers), and
3. real-time query serving with production-like arrival rates (Poisson) and
   working-set sizes (heavy-tail).

An :class:`InfraConfig` names one point in that space; :class:`DeepRecInfra`
materialises it into engines, load generators, and serving simulations so the
scheduler and the experiment drivers can run against a single, consistent
object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.execution.engine import EnginePair, build_engine_pair
from repro.hardware.power import SystemPowerModel
from repro.models.zoo import available_models, get_config
from repro.queries.arrival import ArrivalProcess, PoissonArrival, get_arrival_process
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.queries.size_dist import (
    ProductionQuerySizes,
    QuerySizeDistribution,
    get_size_distribution,
)
from repro.runtime.capacity import CapacityResult, CapacitySearch
from repro.serving.simulator import ServingConfig, ServingSimulator, SimulationResult
from repro.serving.sla import SLATarget, SLATier, sla_target
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class InfraConfig:
    """One DeepRecInfra configuration point.

    Attributes
    ----------
    model:
        Zoo key of the recommendation model.
    cpu_platform:
        ``"skylake"`` or ``"broadwell"``.
    gpu_platform:
        Accelerator name or ``None`` for a CPU-only system.
    arrival_process:
        ``"poisson"`` (production default), ``"fixed"``, or ``"uniform"``.
    size_distribution:
        ``"production"`` (default), ``"lognormal"``, ``"normal"``.
    num_cores:
        CPU worker cores (0 = all cores of the platform).
    seed:
        Root seed for the load generator.
    """

    model: str = "dlrm-rmc1"
    cpu_platform: str = "skylake"
    gpu_platform: Optional[str] = "gtx1080ti"
    arrival_process: str = "poisson"
    size_distribution: str = "production"
    num_cores: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in available_models():
            raise ValueError(
                f"unknown model {self.model!r}; available: {available_models()}"
            )
        if self.num_cores < 0:
            raise ValueError(f"num_cores must be >= 0, got {self.num_cores}")


class DeepRecInfra:
    """Materialised DeepRecInfra instance for one configuration point."""

    def __init__(self, config: InfraConfig) -> None:
        self._config = config
        self._engines = build_engine_pair(
            config.model, config.cpu_platform, config.gpu_platform
        )
        sizes = get_size_distribution(config.size_distribution)
        arrival = get_arrival_process(config.arrival_process, rate_qps=100.0)
        self._load_generator = LoadGenerator(
            arrival=arrival, sizes=sizes, seed=config.seed
        )
        self._power_model = SystemPowerModel(
            self._engines.cpu.platform,
            self._engines.gpu.platform if self._engines.gpu else None,
        )

    @property
    def config(self) -> InfraConfig:
        """The configuration this instance was built from."""
        return self._config

    @property
    def engines(self) -> EnginePair:
        """CPU (and optional GPU) engines for the configured model/platform."""
        return self._engines

    @property
    def load_generator(self) -> LoadGenerator:
        """Load generator with the configured arrival and size distributions."""
        return self._load_generator

    @property
    def power_model(self) -> SystemPowerModel:
        """System power model (CPU plus optional accelerator)."""
        return self._power_model

    @property
    def model_config(self):
        """Table I architecture configuration of the model."""
        return get_config(self._config.model)

    def sla(self, tier: SLATier = SLATier.MEDIUM) -> SLATarget:
        """SLA tail-latency target for the configured model at ``tier``."""
        return sla_target(self._config.model, tier)

    # ------------------------------------------------------------------ #

    def generate_queries(self, num_queries: int, rate_qps: float) -> Sequence[Query]:
        """Generate a query stream at ``rate_qps``."""
        check_positive("num_queries", num_queries)
        return self._load_generator.with_rate(rate_qps).generate(num_queries)

    def simulate(
        self, serving_config: ServingConfig, queries: Sequence[Query]
    ) -> SimulationResult:
        """Run the serving simulator for an explicit query stream."""
        return ServingSimulator(self._engines, serving_config).run(queries)

    def capacity(
        self,
        serving_config: ServingConfig,
        tier: SLATier = SLATier.MEDIUM,
        num_queries: int = 800,
        iterations: int = 6,
    ) -> CapacityResult:
        """Max QPS under the tier's p95 SLA for one serving configuration."""
        return CapacitySearch.for_server(
            self._engines,
            serving_config,
            self.sla(tier).latency_s,
            self._load_generator,
            num_queries=num_queries,
            iterations=iterations,
        ).run()
