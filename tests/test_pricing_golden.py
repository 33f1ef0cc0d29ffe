"""Golden pins of the analytic pricing model (Figs. 3, 4, 6, 9 and 12).

Every latency the simulators charge comes from one analytic model: the
operator costs in :mod:`repro.models.ops`, the efficiency curves, and the
CPU/GPU engine formulas, read through the dense latency tables.  These tests
pin that model bit for bit: one sha256 over ``float.hex`` of

* every CPU latency-table entry, batch 1..1024, for every core count
  1..``num_cores``, for each zoo model on Skylake (40 cores) and
  Broadwell (28 cores);
* every GPU latency-table entry, query size 1..4096, for each zoo model on
  the GTX 1080 Ti;
* ``RequestLatency`` components and ``operator_breakdown`` at batches
  {1, 7, 64, 1000} x cores {1, 4, 40};
* ``GPUQueryLatency`` components at sizes {1, 100, 4096};
* every zoo operator's ``OperatorCost`` fields at the same batches.

A few literal entries are pinned as well, so a failure shows a readable
value.  A change that moves any price by one last-place unit fails here.
"""

import hashlib

import pytest

from repro.execution.engine import build_cpu_engine, build_gpu_engine
from repro.models.zoo import get_model

#: The eight zoo models, in the paper's order (fixed, so a model registered
#: elsewhere cannot change the digest).
MODELS = ("dlrm-rmc1", "dlrm-rmc2", "dlrm-rmc3", "ncf", "wnd", "mt-wnd", "din", "dien")
CPUS = ("skylake", "broadwell")
GPU = "gtx1080ti"
MAX_BATCH = 1024
MAX_QUERY_SIZE = 4096
BATCHES = (1, 7, 64, 1000)
CORES = (1, 4, 40)
QUERY_SIZES = (1, 100, 4096)

CPU_TABLE_DIGEST = "1884e9bc04d8e9a1002630d216e01d4c464156d71c1c4a39f20268ff97ab5f66"
GPU_TABLE_DIGEST = "cf7454ec1d4d671bf26949e5783f646812ad6699d4c2c2faee79c80a32dc72a4"
SCALAR_API_DIGEST = "dfeb116d2fbbdf1ad92057cce6130f19ca9e60c48371f51c68205dfec418745b"
OPERATOR_COST_DIGEST = "bdf10df732c5921128c3e1b48c1f4f517d473c16469d0d244a7cf89a1bf81a69"


def _hex(value) -> str:
    return float.hex(float(value))


def _digest(lines) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode("ascii"))
        sha.update(b"\n")
    return sha.hexdigest()


def cpu_table_lines():
    for model in MODELS:
        for platform in CPUS:
            engine = build_cpu_engine(model, platform)
            table = engine.latency_table
            for cores in range(1, engine.platform.num_cores + 1):
                column = table.column(MAX_BATCH, cores)
                entries = " ".join(_hex(column[b]) for b in range(1, MAX_BATCH + 1))
                yield f"{model} {platform} {cores} {entries}"


def gpu_table_lines():
    for model in MODELS:
        totals = build_gpu_engine(model, GPU).latency_table.totals(MAX_QUERY_SIZE)
        entries = " ".join(_hex(totals[s]) for s in range(1, MAX_QUERY_SIZE + 1))
        yield f"{model} {entries}"


def scalar_api_lines():
    for model in MODELS:
        for platform in CPUS:
            engine = build_cpu_engine(model, platform)
            for batch in BATCHES:
                for cores in CORES:
                    parts = engine.request_latency(batch, cores)
                    breakdown = engine.operator_breakdown(batch, cores)
                    shares = " ".join(
                        f"{category.value}={_hex(breakdown[category])}"
                        for category in sorted(breakdown, key=lambda c: c.value)
                    )
                    yield (
                        f"{model} {platform} {batch} {cores} "
                        f"{_hex(parts.compute_s)} {_hex(parts.memory_s)} "
                        f"{_hex(parts.overhead_s)} {_hex(parts.total_s)} "
                        f"{_hex(engine.request_latency_s(batch, cores))} {shares}"
                    )
        gpu = build_gpu_engine(model, GPU)
        for size in QUERY_SIZES:
            latency = gpu.query_latency(size)
            yield (
                f"{model} {GPU} {size} {_hex(latency.data_loading_s)} "
                f"{_hex(latency.compute_s)} {_hex(latency.total_s)} "
                f"{_hex(latency.data_loading_fraction)} {_hex(gpu.query_latency_s(size))}"
            )


def operator_cost_lines():
    for model in MODELS:
        for op in get_model(model, build_executable=False).operators():
            for batch in BATCHES:
                cost = op.cost(batch)
                yield (
                    f"{model} {op.name} {batch} {_hex(cost.flops)} "
                    f"{_hex(cost.regular_bytes)} {_hex(cost.irregular_bytes)}"
                )


@pytest.mark.parametrize(
    "lines, expected",
    [
        (cpu_table_lines, CPU_TABLE_DIGEST),
        (gpu_table_lines, GPU_TABLE_DIGEST),
        (scalar_api_lines, SCALAR_API_DIGEST),
        (operator_cost_lines, OPERATOR_COST_DIGEST),
    ],
    ids=["cpu-tables", "gpu-tables", "scalar-api", "operator-costs"],
)
def test_pricing_digest(lines, expected):
    assert _digest(lines()) == expected


def test_literal_cpu_entries():
    engine = build_cpu_engine("dlrm-rmc1", "skylake")
    assert _hex(engine.latency_table.column(MAX_BATCH, 1)[64]) == "0x1.86af6d65cdbf8p-10"
    assert _hex(engine.request_latency_s(64, 1)) == "0x1.86af6d65cdbf8p-10"
    dien = build_cpu_engine("dien", "broadwell")
    assert _hex(dien.latency_table.column(MAX_BATCH, 28)[1000]) == "0x1.667c141711c16p-4"


def test_literal_gpu_entries():
    engine = build_gpu_engine("dlrm-rmc1", GPU)
    latency = engine.query_latency(100)
    assert _hex(latency.data_loading_s) == "0x1.c1ac5c13fd0d0p-11"
    assert _hex(latency.compute_s) == "0x1.f1db17be89235p-12"
    assert _hex(engine.latency_table.totals(MAX_QUERY_SIZE)[4096]) == "0x1.2b569039582f0p-8"
