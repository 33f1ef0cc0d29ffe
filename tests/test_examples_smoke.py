"""Smoke tests that the runnable examples execute end to end.

The examples are part of the public deliverable; these tests import each one
as a module and call its entry points with reduced workloads where possible,
catching API drift between the library and the examples.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a module without executing __main__."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "sla_sweep.py",
            "accelerator_offload.py",
            "production_fleet.py",
            "cluster_fleet.py",
            "digital_twin.py",
            "fault_storm.py",
            "distributed_sweep.py",
        ],
    )
    def test_example_imports_cleanly(self, name):
        module = load_example(name)
        assert module.__doc__


class TestQuickstartFunctions:
    def test_run_inference(self, capsys):
        quickstart = load_example("quickstart.py")
        quickstart.run_inference()
        output = capsys.readouterr().out
        assert "click-through-rate" in output

    def test_inspect_performance(self, capsys):
        quickstart = load_example("quickstart.py")
        quickstart.inspect_performance()
        output = capsys.readouterr().out
        assert "embedding" in output
        assert "memory-bound" in output


class TestAcceleratorOffloadStudy:
    def test_study_runs_for_small_model(self, capsys):
        example = load_example("accelerator_offload.py")
        example.study("ncf", batch_size=128)
        output = capsys.readouterr().out
        assert "cpu-only" in output
        assert "qps-per-watt" in output


class TestClusterFleetExample:
    def test_compare_policies_reduced_load(self, capsys):
        example = load_example("cluster_fleet.py")
        example.compare_policies(rate_qps=2000.0, num_queries=400)
        output = capsys.readouterr().out
        assert "least-outstanding" in output
        assert "per-server share" in output

    def test_parallel_sweep_demo_reports_cache_hits(self, capsys):
        example = load_example("cluster_fleet.py")
        example.parallel_sweep_demo(batch_sizes=(256,), processes=1)
        output = capsys.readouterr().out
        assert "1/1 cache hits" in output


class TestDigitalTwinExample:
    def test_replay_shows_shadow_divergence(self, capsys):
        example = load_example("digital_twin.py")
        pipeline = example.replay()  # the demo's own sizing (~1 s)
        output = capsys.readouterr().out
        assert "shadow mode:" in output
        assert "DIVERGED" in output  # the under-provisioned what-if flagged
        assert "memo replays" in output
        assert pipeline.reports, "no windows closed during the replay"
        assert all(r.real.green for r in pipeline.reports)


class TestFaultStormExample:
    def test_storm_replay_shows_failure_aware_winning(self, capsys):
        example = load_example("fault_storm.py")
        example.storm_replay()
        output = capsys.readouterr().out
        assert "Fault storm" in output
        assert "naive" in output
        assert "failure-aware" in output
        assert "blackholes" in output

    def test_determinism_demo_reports_bit_identical_replays(self, capsys):
        example = load_example("fault_storm.py")
        example.determinism_demo()
        output = capsys.readouterr().out
        assert "bit-identically" in output


class TestDistributedSweepExample:
    def test_fleet_survives_host_kill_bit_identically(self, capsys):
        example = load_example("distributed_sweep.py")
        assert example.run_demo(num_queries=30, iterations=3) == 0
        output = capsys.readouterr().out
        assert "SIGKILL worker" in output
        assert "bit-identical to the serial sweep" in output
