"""Parallel scenario execution and report schema/diff UX."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro.exceptions import GoldenMismatchError
from repro.scenarios import (
    ScenarioRunner,
    assert_dict_matches_golden,
    assert_matches_golden,
    get_scenario,
    load_golden,
    run_scenarios,
    scenario_names,
    unified_diff_summary,
)
from repro.scenarios.parallel import reports_by_name
from repro.scenarios.report import SCHEMA_VERSION

#: A cheap but diverse subset for the byte-identity comparison (the full
#: registry is exercised serially by the golden tests and in CI by --jobs).
SUBSET = ["uniform", "bursty", "fleet-uniform", "fleet-device-loss", "multi-workload-mix"]


class TestParallelExecution:
    def test_parallel_reports_are_byte_identical_to_serial(self):
        serial = reports_by_name(run_scenarios(SUBSET, jobs=1))
        parallel = reports_by_name(run_scenarios(SUBSET, jobs=3))
        assert serial.keys() == parallel.keys() == set(SUBSET)
        for name in SUBSET:
            assert serial[name] == parallel[name], f"{name} diverged across processes"

    def test_outcomes_preserve_requested_order(self):
        outcomes = run_scenarios(SUBSET, jobs=2)
        assert [outcome.name for outcome in outcomes] == SUBSET

    def test_parallel_outcomes_match_committed_goldens(self):
        for outcome in run_scenarios(["uniform", "fleet-uniform"], jobs=2):
            assert outcome.ok
            assert_dict_matches_golden(outcome.name, json.loads(outcome.report_json))

    def test_scenario_errors_are_captured_not_raised(self):
        outcomes = run_scenarios(["uniform", "no-such-scenario"], jobs=2)
        by_name = {outcome.name: outcome for outcome in outcomes}
        assert by_name["uniform"].ok
        assert not by_name["no-such-scenario"].ok
        assert "unknown scenario" in by_name["no-such-scenario"].error


class TestReportSchema:
    def test_reports_carry_schema_version(self):
        report = ScenarioRunner().run(get_scenario("uniform"))
        assert report.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_committed_goldens_carry_schema_version(self):
        for name in scenario_names():
            assert load_golden(name)["schema_version"] == SCHEMA_VERSION


class TestGoldenDiffUX:
    def test_mismatch_error_includes_unified_diff(self):
        report = ScenarioRunner().run(get_scenario("uniform"))
        live = report.to_dict()
        live["cluster"]["device_switches"] += 1
        with pytest.raises(GoldenMismatchError) as excinfo:
            assert_dict_matches_golden("uniform", live)
        message = str(excinfo.value)
        assert "--- golden/uniform.json" in message
        assert "+++ live/uniform.json" in message
        assert "device_switches" in message

    def test_unified_diff_summary_truncates(self):
        live = {f"key{index}": index for index in range(200)}
        golden = {f"key{index}": index + 1 for index in range(200)}
        summary = unified_diff_summary(live, golden, "x", max_lines=10)
        assert "omitted" in summary

    def test_matching_report_raises_nothing(self):
        report = ScenarioRunner().run(get_scenario("uniform"))
        assert_matches_golden(report)


def _second_interpreter() -> Optional[str]:
    """A CPython of another minor version than the one running the tests
    that starts here (a version manager's shim may exist and run nothing)."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(9, 16)]
    candidates.append("/root/miniconda/bin/python3.13")
    for candidate in candidates:
        if candidate is None or not os.path.exists(candidate):
            continue
        try:
            probe = subprocess.run(  # repro: noqa[RPR105] reason=asks a host interpreter for its version, outside any simulation
                [candidate, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except OSError:
            continue
        if probe.returncode == 0 and probe.stdout.split() != [
            str(sys.version_info[0]),
            str(sys.version_info[1]),
        ]:
            return candidate
    return None


class TestSecondInterpreter:
    def test_goldens_hold_under_another_cpython(self):
        """The goldens are byte-exact, float digests included, so they hold
        only if nothing on the way leans on one CPython's dict, sort or
        hashing behaviour; the standard library is all the check needs."""
        interpreter = _second_interpreter()
        if interpreter is None:
            pytest.skip("no second Python interpreter on this machine")
        root = Path(__file__).resolve().parent.parent
        check = subprocess.run(  # repro: noqa[RPR105] reason=the golden check must run in another interpreter's process
            [interpreter, "-m", "repro.scenarios", "--check", "--jobs", "2"],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        assert f"checked {len(scenario_names())} scenarios" in check.stdout
