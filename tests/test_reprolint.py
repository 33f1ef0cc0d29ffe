"""Tests for ``tools/reprolint``: every rule, suppressions, baseline, CLI.

Each rule gets a bad fixture (must trigger) and a good fixture (must stay
clean) linted through :func:`tools.reprolint.lint_text` under a virtual
repo-relative path, so scoping (``include``/``exclude`` prefixes) is
exercised too.  The suite ends with the dogfood checks: the real tree lints
clean, and the docs-citation manifest matches the live test tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import Baseline, Finding, default_rules, lint_text
from tools.reprolint.__main__ import repo_root, run
from tools.reprolint.docs_rule import check_doc_citations
from tools.reprolint.docs_rule import test_manifest as build_test_manifest
from tools.reprolint.engine import META_RULE, parse_suppressions

REPO_ROOT = repo_root()


def rules_fired(source, relpath):
    """The sorted rule ids reprolint raises for ``source`` at ``relpath``."""
    return sorted({f.rule for f in lint_text(source, relpath, default_rules())})


class TestRL001BuiltinHash:
    def test_hash_call_flagged_everywhere(self):
        assert rules_fired("key = hash((name, 1))\n", "src/repro/x.py") == ["RL001"]
        assert rules_fired("key = hash(value)\n", "tests/test_x.py") == ["RL001"]

    def test_crc32_digest_is_clean(self):
        src = "import zlib\nkey = zlib.crc32(name.encode('utf-8'))\n"
        assert rules_fired(src, "src/repro/x.py") == []

    def test_dunder_hash_definition_is_clean(self):
        src = "class C:\n    def __hash__(self):\n        return 7\n"
        assert rules_fired(src, "src/repro/x.py") == []


class TestRL002UnseededRng:
    def test_argless_default_rng_flagged(self):
        src = "import numpy as np\ngen = np.random.default_rng()\n"
        assert rules_fired(src, "src/repro/serving/x.py") == ["RL002"]

    def test_seeded_default_rng_clean(self):
        for call in ("np.random.default_rng(7)", "np.random.default_rng(seed=7)"):
            src = f"import numpy as np\ngen = {call}\n"
            assert rules_fired(src, "src/repro/serving/x.py") == []

    def test_global_samplers_flagged(self):
        np_src = "import numpy as np\nx = np.random.rand(3)\n"
        py_src = "import random\nx = random.random()\n"
        assert rules_fired(np_src, "src/repro/x.py") == ["RL002"]
        assert rules_fired(py_src, "src/repro/x.py") == ["RL002"]

    def test_argless_seed_flagged_but_explicit_seed_allowed(self):
        flagged = "import random\nrandom.seed()\n"
        pinned = "import random\nrandom.seed(20200530)\n"
        assert rules_fired(flagged, "benchmarks/conftest.py") == ["RL002"]
        assert rules_fired(pinned, "benchmarks/conftest.py") == []

    def test_local_variable_named_random_is_clean(self):
        src = "random = make_thing()\nx = random.random()\n"
        assert rules_fired(src, "src/repro/x.py") == []

    def test_rng_module_itself_is_exempt(self):
        src = "import numpy as np\ngen = np.random.default_rng()\n"
        assert rules_fired(src, "src/repro/utils/rng.py") == []


class TestRL003WallClock:
    def test_wall_clock_in_simulator_flagged(self):
        src = "import time\nstart = time.time()\n"
        assert rules_fired(src, "src/repro/serving/simulator.py") == ["RL003"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert rules_fired(src, "src/repro/faults/plan.py") == ["RL003"]

    def test_sleep_is_not_a_clock_read(self):
        src = "import time\ntime.sleep(0.1)\n"
        assert rules_fired(src, "src/repro/serving/simulator.py") == []

    def test_ingest_and_checkpoint_are_out_of_scope(self):
        src = "import time\nstart = time.time()\n"
        assert rules_fired(src, "src/repro/service/ingest.py") == []
        assert rules_fired(src, "src/repro/service/checkpoint.py") == []


class TestRL004PickleSafeSubmit:
    def test_lambda_to_submit_flagged(self):
        src = "future = pool.submit(lambda item: item + 1, 3)\n"
        assert rules_fired(src, "src/repro/runtime/x.py") == ["RL004"]

    def test_lambda_to_map_flagged(self):
        src = "results = pool.map(lambda item: item * 2, items)\n"
        assert rules_fired(src, "tests/test_x.py") == ["RL004"]

    def test_locally_defined_function_flagged(self):
        src = (
            "def driver(pool):\n"
            "    def task(item):\n"
            "        return item + 1\n"
            "    return pool.submit(task, 3)\n"
        )
        assert rules_fired(src, "src/repro/x.py") == ["RL004"]

    def test_module_level_function_clean(self):
        src = (
            "def task(item):\n"
            "    return item + 1\n"
            "def driver(pool):\n"
            "    return pool.submit(task, 3)\n"
        )
        assert rules_fired(src, "src/repro/x.py") == []


class TestRL005UnorderedIteration:
    def test_dict_values_loop_flagged_in_serving(self):
        src = "for state in states.values():\n    total += state\n"
        assert rules_fired(src, "src/repro/serving/x.py") == ["RL005"]

    def test_set_literal_comprehension_flagged(self):
        src = "out = [x for x in {3, 1, 2}]\n"
        assert rules_fired(src, "src/repro/experiments/x.py") == ["RL005"]

    def test_sorted_wrapper_is_clean(self):
        src = "for state in sorted(states.values()):\n    total += state\n"
        assert rules_fired(src, "src/repro/serving/x.py") == []

    def test_dict_items_loop_flagged(self):
        src = "for key, state in states.items():\n    total += state\n"
        assert rules_fired(src, "src/repro/serving/x.py") == ["RL005"]
        src = "out = {str(k): v for k, v in shares.items()}\n"
        assert rules_fired(src, "src/repro/experiments/x.py") == ["RL005"]
        src = "for key, state in sorted(states.items()):\n    total += state\n"
        assert rules_fired(src, "src/repro/serving/x.py") == []

    def test_rule_scoped_to_result_layers(self):
        src = "for state in states.values():\n    total += state\n"
        assert rules_fired(src, "src/repro/runtime/pool.py") == []


class TestRL006RegistryContract:
    GOOD = (
        "@register_experiment('fig-x')\n"
        "def fig_x(jobs=1, capacity_cache_dir=None, fidelity='full'):\n"
        "    return None\n"
    )

    def test_good_driver_clean(self):
        assert rules_fired(self.GOOD, "src/repro/experiments/x.py") == []

    def test_kwargs_catchall_flagged(self):
        src = "@register_experiment('fig-x')\ndef fig_x(**kwargs):\n    return None\n"
        assert rules_fired(src, "src/repro/experiments/x.py") == ["RL006"]

    def test_parameter_without_default_flagged(self):
        src = "@register_experiment('fig-x')\ndef fig_x(fidelity):\n    return None\n"
        assert rules_fired(src, "src/repro/experiments/x.py") == ["RL006"]

    def test_jobs_without_cache_dir_flagged(self):
        src = "@register_experiment('fig-x')\ndef fig_x(jobs=1):\n    return None\n"
        assert rules_fired(src, "src/repro/experiments/x.py") == ["RL006"]

    def test_unregistered_helper_ignored(self):
        src = "def helper(jobs):\n    return jobs\n"
        assert rules_fired(src, "src/repro/experiments/x.py") == []


class TestRL007FloatEquality:
    def test_float_literal_equality_flagged_in_src(self):
        assert rules_fired("ok = x == 1.0\n", "src/repro/x.py") == ["RL007"]
        assert rules_fired("ok = x != -2.5\n", "src/repro/x.py") == ["RL007"]

    def test_int_equality_clean(self):
        assert rules_fired("ok = x == 1\n", "src/repro/x.py") == []

    def test_tests_exempt_for_bit_identity_assertions(self):
        assert rules_fired("assert qps == 12.5\n", "tests/test_x.py") == []


class TestRL008SwallowedException:
    def test_silent_broad_handler_flagged(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert rules_fired(src, "src/repro/runtime/x.py") == ["RL008"]

    def test_bare_except_flagged(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        assert rules_fired(src, "src/repro/service/x.py") == ["RL008"]

    def test_reraise_clean(self):
        src = "try:\n    work()\nexcept Exception:\n    raise\n"
        assert rules_fired(src, "src/repro/runtime/x.py") == []

    def test_bound_and_routed_error_clean(self):
        src = (
            "try:\n"
            "    work()\n"
            "except BaseException as error:\n"
            "    future._reject(error)\n"
        )
        assert rules_fired(src, "src/repro/runtime/pool.py") == []

    def test_scoped_to_runtime_and_service(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert rules_fired(src, "src/repro/serving/x.py") == []


class TestRL010SocketTimeout:
    def test_bare_accept_flagged(self):
        src = (
            "def serve(sock):\n"
            "    conn, addr = sock.accept()\n"
            "    return conn\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == ["RL010"]

    def test_accept_with_settimeout_clean(self):
        src = (
            "def serve(sock):\n"
            "    sock.settimeout(5.0)\n"
            "    conn, addr = sock.accept()\n"
            "    return conn\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == []

    def test_bare_recv_flagged(self):
        src = "def pull(sock):\n    return sock.recv(4096)\n"
        assert rules_fired(src, "src/repro/service/x.py") == ["RL010"]

    def test_settimeout_none_does_not_count(self):
        src = (
            "def pull(sock):\n"
            "    sock.settimeout(None)\n"
            "    return sock.recv(4096)\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == ["RL010"]

    def test_module_level_default_timeout_covers_functions(self):
        src = (
            "import socket\n"
            "socket.setdefaulttimeout(30.0)\n"
            "def pull(sock):\n"
            "    return sock.recv(4096)\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == []

    def test_outer_settimeout_does_not_cover_nested_function(self):
        src = (
            "def outer(sock):\n"
            "    sock.settimeout(5.0)\n"
            "    def inner(other):\n"
            "        return other.recv(1)\n"
            "    return inner\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == ["RL010"]

    def test_create_connection_without_timeout_flagged(self):
        src = (
            "import socket\n"
            "def dial(addr):\n"
            "    return socket.create_connection(addr)\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == ["RL010"]

    def test_create_connection_with_timeout_clean(self):
        src = (
            "import socket\n"
            "def dial(addr):\n"
            "    return socket.create_connection(addr, timeout=3.0)\n"
        )
        assert rules_fired(src, "src/repro/runtime/x.py") == []

    def test_scoped_to_runtime_and_service(self):
        src = "def pull(sock):\n    return sock.recv(4096)\n"
        assert rules_fired(src, "src/repro/serving/x.py") == []
        assert rules_fired(src, "tests/test_x.py") == []


class TestSuppressions:
    def test_justified_suppression_silences_finding(self):
        src = "key = hash((1, 2))  # reprolint: disable=RL001 -- ints only\n"
        assert rules_fired(src, "src/repro/x.py") == []

    def test_missing_justification_is_its_own_finding(self):
        src = "key = hash((1, 2))  # reprolint: disable=RL001\n"
        fired = rules_fired(src, "src/repro/x.py")
        assert fired == [META_RULE, "RL001"]  # original finding NOT silenced

    def test_unused_suppression_is_flagged(self):
        src = "x = 1  # reprolint: disable=RL001 -- nothing here\n"
        assert rules_fired(src, "src/repro/x.py") == [META_RULE]

    def test_disable_file_covers_all_lines(self):
        src = (
            "# reprolint: disable-file=RL001 -- fixture module, ints only\n"
            "a = hash((1,))\n"
            "b = hash((2,))\n"
        )
        assert rules_fired(src, "src/repro/x.py") == []

    def test_suppression_in_docstring_is_not_a_directive(self):
        src = '"""Docs: use # reprolint: disable=RL001 -- why."""\nx = 1\n'
        assert rules_fired(src, "src/repro/x.py") == []

    def test_multi_rule_suppression_parses(self):
        (sup,) = parse_suppressions(
            "x = 1  # reprolint: disable=RL001,RL005 -- both justified\n"
        )
        assert sup.rules == ("RL001", "RL005") and sup.why == "both justified"


class TestBaseline:
    def _finding(self, line, rule="RL001"):
        return Finding(path="src/repro/old.py", line=line, col=1, rule=rule, message="m")

    def test_round_trip_absorbs_exactly_the_grandfathered_count(self, tmp_path):
        findings = [self._finding(1), self._finding(5)]
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        assert loaded.filter(findings) == []
        # A third finding of the same kind exceeds the grandfathered count.
        extra = findings + [self._finding(9)]
        assert loaded.filter(extra) == [self._finding(9)]

    def test_meta_findings_never_grandfathered(self, tmp_path):
        meta = self._finding(3, rule=META_RULE)
        baseline = Baseline.from_findings([meta])
        assert baseline.entries == {}
        assert baseline.filter([meta]) == [meta]

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == {}


class TestSyntaxErrors:
    def test_unparseable_file_is_a_meta_finding(self):
        findings = lint_text("def broken(:\n", "src/repro/x.py", default_rules())
        assert [f.rule for f in findings] == [META_RULE]
        assert "does not parse" in findings[0].message


class TestDocsRuleRL009:
    def test_manifest_matches_live_test_tree(self):
        manifest = build_test_manifest(REPO_ROOT)
        nodes = manifest["tests/test_reprolint.py"]
        assert "TestDocsRuleRL009::test_manifest_matches_live_test_tree" in nodes
        assert "TestDocsRuleRL009" in nodes  # class-level citations are valid

    def test_bad_citation_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_real.py").write_text(
            "def test_exists():\n    pass\n"
        )
        (tmp_path / "docs" / "guide.md").write_text(
            "Good: `tests/test_real.py::test_exists`.\n"
            "Rot: `tests/test_real.py::test_renamed`.\n"
            "Gone: `tests/test_missing.py::test_exists`.\n"
        )
        findings = check_doc_citations(tmp_path)
        assert [(f.line, f.rule) for f in findings] == [(2, "RL009"), (3, "RL009")]

    def test_parametrised_citation_suffix_ignored(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_p.py").write_text("def test_case():\n    pass\n")
        (tmp_path / "README.md").write_text("See `tests/test_p.py::test_case[3-x]`.\n")
        assert check_doc_citations(tmp_path) == []

    def test_real_docs_citations_all_resolve(self):
        assert check_doc_citations(REPO_ROOT) == []


class TestSelfRun:
    def test_whole_tree_lints_clean(self):
        """The acceptance gate: the repository has zero unsuppressed findings."""
        argv = [
            str(REPO_ROOT / part)
            for part in ("src", "tests", "benchmarks", "examples", "tools")
            if (REPO_ROOT / part).exists()
        ]
        assert run(argv) == 0

    def test_findings_fail_the_run(self, tmp_path, capsys):
        bad = tmp_path / "src"
        bad.mkdir()
        (bad / "mod.py").write_text("key = hash((name,))\n")
        assert run([str(bad), "--no-docs-rule"]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "mod.py:1:7" in out

    def test_json_format_reports_summary(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("import random\nx = random.random()\n")
        assert run([str(bad), "--format=json", "--no-docs-rule"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "RL002"

    def test_select_and_disable_scope_the_rule_set(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("key = hash((name,))\n")
        assert run([str(bad), "--select", "RL002", "--no-docs-rule"]) == 0
        capsys.readouterr()
        assert run([str(bad), "--disable", "RL001", "--no-docs-rule"]) == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("key = hash((name,))\n")
        baseline = tmp_path / "baseline.json"
        assert run(
            [str(bad), "--baseline", str(baseline), "--write-baseline", "--no-docs-rule"]
        ) == 0
        capsys.readouterr()
        # Grandfathered: the same tree now passes against its baseline...
        assert run([str(bad), "--baseline", str(baseline), "--no-docs-rule"]) == 0
        capsys.readouterr()
        # ...but a second violation of the same kind exceeds the count.
        (bad / "mod.py").write_text("a = hash((name,))\nb = hash((name,))\n")
        assert run([str(bad), "--baseline", str(baseline), "--no-docs-rule"]) == 1

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert run([str(tmp_path / "nope")]) == 2


class TestRegistryCrossCheck:
    def test_linter_contract_matches_runner_introspection(self):
        """RL006's static contract agrees with the registry's live one.

        ``run_experiment`` routes ``jobs``/``capacity_cache_dir`` into any
        driver whose signature accepts them (``experiment_parameters``); the
        lint rule enforces the same pairing statically.  If this test fails,
        a driver changed shape without the linter noticing — tighten RL006.
        """
        from repro.experiments.registry import (
            available_experiments,
            experiment_parameters,
        )

        for experiment_id in available_experiments():
            params = set(experiment_parameters(experiment_id))
            assert ("jobs" in params) == ("capacity_cache_dir" in params), experiment_id


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
class TestMypyGate:
    def test_typed_core_passes_mypy(self):
        """The CI mypy command succeeds on the determinism/concurrency core."""
        result = subprocess.run(
            [
                sys.executable, "-m", "mypy",
                "src/repro/utils", "src/repro/faults", "src/repro/runtime",
                "src/repro/service/windows.py", "src/repro/service/shadow.py",
                "src/repro/service/checkpoint.py", "tools/reprolint",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
