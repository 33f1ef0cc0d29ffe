"""Tests for the CPU latency engine."""

import pytest

from repro.execution.cpu_engine import CPUEngine
from repro.execution.engine import build_cpu_engine
from repro.models.ops import OperatorCategory
from repro.models.zoo import MODEL_NAMES


class TestRequestLatency:
    def test_latency_positive_and_finite(self):
        engine = build_cpu_engine("dlrm-rmc1", "skylake")
        latency = engine.request_latency(64)
        assert latency.total_s > 0
        assert latency.total_s == pytest.approx(
            latency.compute_s + latency.memory_s + latency.overhead_s
        )

    def test_latency_monotonic_in_batch_size(self):
        engine = build_cpu_engine("wnd", "skylake")
        latencies = [engine.request_latency_s(b) for b in (1, 8, 64, 256, 1024)]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_throughput_improves_with_batch_size(self):
        # The efficiency story behind DeepRecSched: items/s per core grows
        # with the batch size.
        engine = build_cpu_engine("dlrm-rmc1", "skylake")
        assert engine.throughput_items_per_s(256) > engine.throughput_items_per_s(8)

    def test_latency_grows_with_active_cores(self):
        engine = build_cpu_engine("dlrm-rmc1", "broadwell")
        assert engine.request_latency_s(64, active_cores=28) > engine.request_latency_s(
            64, active_cores=1
        )

    def test_active_cores_clamped_to_platform(self):
        engine = build_cpu_engine("dlrm-rmc1", "skylake")
        assert engine.request_latency_s(64, 40) == engine.request_latency_s(64, 400)

    def test_invalid_arguments(self):
        engine = build_cpu_engine("ncf", "skylake")
        with pytest.raises(ValueError):
            engine.request_latency(0)
        with pytest.raises(ValueError):
            engine.request_latency(8, 0)
        # -1 would read a latency table's last entry if it reached the index.
        for call in (engine.request_latency, engine.request_latency_s, engine.operator_breakdown):
            with pytest.raises(ValueError):
                call(-1)
            with pytest.raises(ValueError):
                call(8, -1)

    def test_negative_overheads_rejected(self):
        with pytest.raises(ValueError):
            CPUEngine(
                build_cpu_engine("ncf", "skylake").model,
                build_cpu_engine("ncf", "skylake").platform,
                per_request_overhead_s=-1.0,
            )


class TestModelContrasts:
    def test_embedding_model_memory_bound(self):
        engine = build_cpu_engine("dlrm-rmc1", "broadwell")
        latency = engine.request_latency(64)
        assert latency.memory_s > latency.compute_s

    def test_mlp_model_compute_bound(self):
        engine = build_cpu_engine("dlrm-rmc3", "skylake")
        latency = engine.request_latency(64)
        assert latency.compute_s > latency.memory_s

    def test_mtwnd_slower_than_wnd(self):
        wnd = build_cpu_engine("wnd", "skylake").request_latency_s(64)
        mt = build_cpu_engine("mt-wnd", "skylake").request_latency_s(64)
        assert mt > 2 * wnd

    def test_rmc2_slower_than_rmc1(self):
        # RMC2 has 4x the embedding tables of RMC1.
        rmc1 = build_cpu_engine("dlrm-rmc1", "skylake").request_latency_s(64)
        rmc2 = build_cpu_engine("dlrm-rmc2", "skylake").request_latency_s(64)
        assert rmc2 > 2 * rmc1

    def test_llc_residency_differs_across_platforms_for_rmc3(self):
        # DLRM-RMC3's dense weights fit Skylake's larger LLC but not
        # Broadwell's: the mechanism behind the Fig. 12(c) difference.
        assert build_cpu_engine("dlrm-rmc3", "skylake").weights_llc_resident
        assert not build_cpu_engine("dlrm-rmc3", "broadwell").weights_llc_resident

    def test_small_models_resident_everywhere(self):
        assert build_cpu_engine("dlrm-rmc1", "broadwell").weights_llc_resident
        assert build_cpu_engine("ncf", "broadwell").weights_llc_resident


class TestOperatorBreakdown:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_breakdown_sums_to_request_latency_components(self, name):
        engine = build_cpu_engine(name, "broadwell")
        breakdown = engine.operator_breakdown(64)
        total = sum(breakdown.values())
        latency = engine.request_latency(64)
        # The breakdown excludes the per-request overhead.
        assert total == pytest.approx(latency.total_s - 120e-6, rel=1e-6)

    def test_breakdown_positive_entries(self):
        breakdown = build_cpu_engine("din", "broadwell").operator_breakdown(64)
        assert all(value > 0 for value in breakdown.values())

    def test_embedding_dominates_for_rmc2(self):
        breakdown = build_cpu_engine("dlrm-rmc2", "broadwell").operator_breakdown(64)
        total = sum(breakdown.values())
        assert breakdown[OperatorCategory.EMBEDDING] / total > 0.5

    def test_fc_dominates_for_wnd(self):
        breakdown = build_cpu_engine("wnd", "broadwell").operator_breakdown(64)
        total = sum(breakdown.values())
        assert breakdown[OperatorCategory.FC] / total > 0.5
