"""Running scenarios by name, the report schema and the golden-diff UX."""

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
    get_scenario,
    load_golden,
    run_one,
    scenario_names,
    unified_diff_summary,
)
from repro.scenarios.report import SCHEMA_VERSION

class TestRunOne:
    def test_outcomes_match_committed_goldens(self):
        for name in ("uniform", "fleet-uniform"):
            outcome = run_one(name)
            assert outcome.ok and outcome.name == name
            assert_dict_matches_golden(name, json.loads(outcome.report_json))

    def test_scenario_errors_are_captured_not_raised(self):
        outcome = run_one("no-such-scenario")
        assert not outcome.ok and outcome.report_json is None
        assert "unknown scenario" in outcome.error


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
        summary = unified_diff_summary(live, golden, "x")
        assert "omitted" in summary

    def test_matching_report_raises_nothing(self):
        report = ScenarioRunner().run(get_scenario("uniform"))
        assert_dict_matches_golden(report.scenario, report.to_dict())


def _second_interpreter() -> Optional[str]:
    """A CPython of another minor version than the one running the tests
    that starts here (a version manager's shim may exist and run nothing)."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(9, 16)]
    candidates.append("/root/miniconda/bin/python3.13")
    for candidate in candidates:
        if candidate is None or not os.path.exists(candidate):
            continue
        try:
            probe = subprocess.run(
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
        check = subprocess.run(
            [interpreter, "-m", "repro.scenarios", "--check"],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        assert f"checked {len(scenario_names())} scenarios" in check.stdout

    def test_ledger_pins_hold_under_another_cpython(self):
        """The ledger pins a run's simulated means, not only its report, and
        a mean that ``sum()`` takes is compensated on CPython 3.12 and later:
        ``vanilla-pull``'s moved by one ulp before ``mean`` folded left to
        right.  The quick run checks every pin of its seed."""
        interpreter = _second_interpreter()
        if interpreter is None:
            pytest.skip("no second Python interpreter on this machine")
        root = Path(__file__).resolve().parent.parent
        run = subprocess.run(
            [
                interpreter,
                str(root / "ledger" / "run.py"),
                "--workload",
                "vanilla-pull",
                "--quick",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stdout + run.stderr
