"""Tests for the dense latency tables (the execution fast path).

Each pricing formula is written once, over a batch vector; the tables cache
its columns and the engines' scalar API reads them.  Equality of a table
entry with a scalar call is therefore by construction; these tests check it
with ``==`` (no tolerance) across the model zoo as a wiring check, and cover
the tables' caching, the scaled view, and a user-defined operator pricing
through the same path.  ``tests/test_pricing_golden.py`` pins the values.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cpu_engine import CPUEngine
from repro.execution.engine import build_cpu_engine, build_gpu_engine
from repro.execution.latency_table import (
    MAX_SCALAR_COLUMN_SIZE,
    ScaledLatencyTable,
    _one_size,
)
from repro.execution.scaled_engine import ScaledCPUEngine
from repro.hardware.cpu import get_cpu
from repro.models.ops import FullyConnected, Operator, OperatorCategory, OperatorCost
from repro.models.zoo import available_models
from repro.utils.validation import check_batch

SETTINGS = settings(max_examples=40, deadline=None)

MODELS = available_models()
_CPU_ENGINES = {}
_GPU_ENGINES = {}


def cpu_engine(model: str, platform: str) -> CPUEngine:
    key = (model, platform)
    if key not in _CPU_ENGINES:
        _CPU_ENGINES[key] = build_cpu_engine(model, platform)
    return _CPU_ENGINES[key]


def gpu_engine(model: str):
    if model not in _GPU_ENGINES:
        _GPU_ENGINES[model] = build_gpu_engine(model)
    return _GPU_ENGINES[model]


class TestCPUTableExactness:
    @SETTINGS
    @given(
        model=st.sampled_from(MODELS),
        platform=st.sampled_from(["skylake", "broadwell"]),
        batch=st.integers(1, 1024),
        cores=st.integers(1, 40),
    )
    def test_lookup_equals_engine_call(self, model, platform, batch, cores):
        engine = cpu_engine(model, platform)
        table = engine.latency_table
        assert table.total_s(batch, cores) == engine.request_latency_s(batch, cores)

    def test_full_grid_exact_for_one_model(self):
        engine = cpu_engine("dlrm-rmc2", "skylake")
        table = engine.latency_table
        for cores in (1, 4, 18):
            for batch in range(1, 130):
                assert table.total_s(batch, cores) == engine.request_latency_s(
                    batch, cores
                )

    def test_columns_are_cached_and_shared(self):
        engine = cpu_engine("ncf", "skylake")
        table = engine.latency_table
        first = table.column(64, 2)
        second = table.column(32, 2)
        assert second is first  # same column object serves smaller ranges
        assert len(first) > 64
        assert math.isnan(first[0])  # index 0 is unused

    def test_entries_built_counter_grows(self):
        engine = build_cpu_engine("wnd", "skylake")
        table = engine.latency_table
        assert table.entries_built == 0
        table.total_s(8, 1)
        assert table.entries_built > 0


class TestGPUTableExactness:
    @SETTINGS
    @given(model=st.sampled_from(MODELS), size=st.integers(1, 2048))
    def test_lookup_equals_engine_call(self, model, size):
        engine = gpu_engine(model)
        table = engine.latency_table
        assert table.total_s(size) == engine.query_latency_s(size)

    def test_totals_grow_on_demand(self):
        engine = build_gpu_engine("din")
        table = engine.latency_table
        assert table.entries_built == 0
        small = table.total_s(10)
        assert table.entries_built > 0
        large = table.total_s(5000)
        assert small == engine.query_latency_s(10)
        assert large == engine.query_latency_s(5000)


class TestScalarPastColumnCap:
    """Past ``MAX_SCALAR_COLUMN_SIZE`` a scalar lookup prices one size alone."""

    def test_one_element_price_equals_gpu_column(self):
        engine = build_gpu_engine("ncf")
        totals = engine.latency_table.totals(MAX_SCALAR_COLUMN_SIZE)
        for size in range(1, MAX_SCALAR_COLUMN_SIZE + 1):
            data_loading, kernel = engine.query_components(_one_size(size))
            assert float((data_loading + kernel)[0]) == totals[size], size

    @pytest.mark.parametrize("cores", [1, 4, 40])
    def test_one_element_price_equals_cpu_column(self, cores):
        engine = build_cpu_engine("dlrm-rmc1", "skylake")
        column = engine.latency_table.column(1024, cores)
        for batch in range(1, 1025):
            terms = engine.batch_terms(_one_size(batch))
            compute, memory, overhead = engine.request_components(terms, cores)
            assert float(((compute + memory) + overhead)[0]) == column[batch], batch

    def test_lookups_past_the_cap_equal_a_built_column(self):
        gpu = build_gpu_engine("din")
        totals = gpu.latency_table.totals(8192)
        cpu = build_cpu_engine("ncf", "broadwell")
        column = cpu.latency_table.column(8192, 3)
        scaled = ScaledLatencyTable(cpu.latency_table, 1.3)
        scaled_column = scaled.column(8192, 3)
        for size in (MAX_SCALAR_COLUMN_SIZE + 1, 5000, 8192):
            assert gpu.query_latency_s(size) == totals[size]
            assert gpu.query_latency(size).total_s == totals[size]
            assert cpu.request_latency_s(size, 3) == column[size]
            assert cpu.request_latency(size, 3).total_s == column[size]
            assert scaled.total_s(size, 3) == scaled_column[size]

    def test_huge_lookup_builds_no_column(self):
        gpu = build_gpu_engine("ncf")
        cpu = build_cpu_engine("ncf", "skylake")
        size = 10**6
        assert gpu.query_latency_s(size) == sum(gpu.latency_table.components(size))
        assert cpu.request_latency_s(size, 2) > 0
        cpu.request_latency(size, 2)
        assert ScaledLatencyTable(cpu.latency_table, 1.5).total_s(size, 2) > 0
        assert gpu.latency_table.entries_built == 0
        assert cpu.latency_table.entries_built == 0


class TestScaledTableExactness:
    """The scaled view is exactly ``speed_factor x`` the base table."""

    @SETTINGS
    @given(
        model=st.sampled_from(MODELS),
        platform=st.sampled_from(["skylake", "broadwell"]),
        batch=st.integers(1, 1024),
        cores=st.integers(1, 40),
        factor=st.floats(0.5, 2.0, allow_nan=False),
    )
    def test_entries_are_exactly_factor_times_base(
        self, model, platform, batch, cores, factor
    ):
        engine = cpu_engine(model, platform)
        scaled = ScaledCPUEngine(engine, speed_factor=factor)
        table = scaled.latency_table
        assert table.total_s(batch, cores) == factor * engine.latency_table.total_s(
            batch, cores
        )

    def test_scalar_call_matches_table_bit_for_bit(self):
        engine = cpu_engine("dlrm-rmc1", "skylake")
        scaled = ScaledCPUEngine(engine, speed_factor=1.0375)
        table = scaled.latency_table
        for cores in (1, 4, 16):
            for batch in range(1, 130):
                assert table.total_s(batch, cores) == scaled.request_latency_s(
                    batch, cores
                )

    def test_view_shares_base_build(self):
        base = build_cpu_engine("dlrm-rmc1", "skylake")
        first = ScaledCPUEngine(base, speed_factor=1.05)
        second = ScaledCPUEngine(base, speed_factor=0.95)
        first.latency_table.total_s(64, 2)
        built = base.latency_table.entries_built
        assert built > 0
        # The second view reuses the base column: no extra base entries built.
        second.latency_table.total_s(64, 2)
        assert base.latency_table.entries_built == built

    def test_scaled_column_follows_base_growth(self):
        engine = build_cpu_engine("ncf", "broadwell")
        scaled = ScaledCPUEngine(engine, speed_factor=1.2)
        table = scaled.latency_table
        small = table.column(32, 2)
        assert table.column(16, 2) is small  # cached view serves smaller ranges
        grown = table.column(4 * len(small), 2)
        assert grown is not small
        assert grown[100] == 1.2 * engine.latency_table.column(4 * len(small), 2)[100]

    def test_invalid_factor_rejected(self):
        engine = cpu_engine("ncf", "skylake")
        with pytest.raises(ValueError):
            ScaledLatencyTable(engine.latency_table, 0.0)
        with pytest.raises(ValueError):
            ScaledCPUEngine(engine, speed_factor=-1.0)


class _OddOperator(Operator):
    """A user-defined operator: plain arithmetic on the batch, so it accepts a vector."""

    def __init__(self) -> None:
        super().__init__("odd", OperatorCategory.OTHER)

    def cost(self, batch_size) -> OperatorCost:
        batch = check_batch(batch_size)
        return OperatorCost(flops=batch**1.5 * 1e6, regular_bytes=batch * 4096.0)


class _StubModel:
    """Minimal duck-typed model: just an operator list."""

    def __init__(self, operators):
        self._operators = list(operators)

    def operators(self):
        return list(self._operators)


class TestCustomOperator:
    def test_user_operator_prices_through_the_one_path(self):
        model = _StubModel([FullyConnected("fc", 64, 32), _OddOperator()])
        engine = CPUEngine(model, get_cpu("skylake"))
        table = engine.latency_table
        for cores in (1, 3):
            for batch in (1, 2, 7, 33, 100):
                parts = engine.request_latency(batch, cores)
                assert table.total_s(batch, cores) == engine.request_latency_s(batch, cores)
                assert table.total_s(batch, cores) == parts.total_s
                breakdown = engine.operator_breakdown(batch, cores)
                assert set(breakdown) == {OperatorCategory.FC, OperatorCategory.OTHER}
                assert sum(breakdown.values()) == pytest.approx(
                    parts.total_s - 120e-6, rel=1e-12
                )

    def test_user_operator_adds_its_cost(self):
        fc = FullyConnected("fc", 64, 32)
        with_odd = CPUEngine(_StubModel([fc, _OddOperator()]), get_cpu("skylake"))
        without = CPUEngine(_StubModel([fc]), get_cpu("skylake"))
        for batch in (1, 64, 1000):
            assert with_odd.request_latency_s(batch) > without.request_latency_s(batch)
