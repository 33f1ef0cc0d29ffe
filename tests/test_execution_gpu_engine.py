"""Tests for the GPU latency engine (Fig. 4 behaviours)."""

import pytest

from repro.execution.engine import build_cpu_engine, build_gpu_engine
from repro.models.zoo import MODEL_NAMES


class TestGPULatency:
    def test_latency_positive_and_split(self):
        engine = build_gpu_engine("dlrm-rmc1")
        latency = engine.query_latency(64)
        assert latency.data_loading_s > 0
        assert latency.compute_s > 0
        assert latency.total_s == pytest.approx(latency.data_loading_s + latency.compute_s)

    def test_latency_monotonic_in_query_size(self):
        engine = build_gpu_engine("wnd")
        latencies = [engine.query_latency_s(b) for b in (1, 16, 128, 1024)]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_invalid_query_size(self):
        engine = build_gpu_engine("ncf")
        for call in (engine.query_latency, engine.query_latency_s):
            for size in (0, -1):
                with pytest.raises(ValueError):
                    call(size)

    def test_speedup_helper(self):
        engine = build_gpu_engine("dlrm-rmc1")
        assert engine.speedup_over_cpu(1.0, 64) == pytest.approx(
            1.0 / engine.query_latency_s(64)
        )


class TestFig4Behaviours:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_data_loading_dominates_gpu_time(self, name):
        # The paper reports 60-80% of GPU time spent on data loading across
        # batch sizes; allow a slightly wider band for the model.
        engine = build_gpu_engine(name)
        fractions = [
            engine.query_latency(batch).data_loading_fraction
            for batch in (16, 64, 256, 1024)
        ]
        mean_fraction = sum(fractions) / len(fractions)
        assert 0.4 <= mean_fraction <= 0.9

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_gpu_wins_at_large_batches(self, name):
        cpu = build_cpu_engine(name, "broadwell")
        gpu = build_gpu_engine(name)
        assert cpu.request_latency_s(1024) / gpu.query_latency_s(1024) > 1.0

    def test_ncf_loses_to_cpu_at_small_batches(self):
        # Small, cheap models do not amortise the transfer cost at small
        # batches (the crossover annotated in Fig. 4).
        cpu = build_cpu_engine("ncf", "broadwell")
        gpu = build_gpu_engine("ncf")
        assert cpu.request_latency_s(1) / gpu.query_latency_s(1) < 1.0

    def test_speedup_grows_with_batch(self):
        cpu = build_cpu_engine("dlrm-rmc1", "broadwell")
        gpu = build_gpu_engine("dlrm-rmc1")
        speedups = [
            cpu.request_latency_s(b) / gpu.query_latency_s(b) for b in (4, 64, 1024)
        ]
        assert speedups[0] < speedups[1] < speedups[2]

    def test_compute_heavy_models_gain_more_at_large_batch(self):
        # Fig. 4: WnD (compute intensive) benefits more from the GPU than NCF.
        wnd_cpu = build_cpu_engine("wnd", "broadwell")
        wnd_gpu = build_gpu_engine("wnd")
        ncf_cpu = build_cpu_engine("ncf", "broadwell")
        ncf_gpu = build_gpu_engine("ncf")
        wnd_speedup = wnd_cpu.request_latency_s(1024) / wnd_gpu.query_latency_s(1024)
        ncf_speedup = ncf_cpu.request_latency_s(1024) / ncf_gpu.query_latency_s(1024)
        assert wnd_speedup > ncf_speedup
