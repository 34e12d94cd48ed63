"""Running scenarios by name, the report schema and the golden-diff UX."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest
from test_catalog_digests import FAST_PINS
from timeline_digest import PINS as TIMELINE_PINS

from repro.exceptions import GoldenMismatchError
from repro.scenarios import (
    ScenarioRunner,
    assert_dict_matches_golden,
    get_scenario,
    load_golden,
    run_one,
    scenario_names,
)
from repro.scenarios.golden import default_golden_dir
from repro.scenarios.report import SCHEMA_VERSION

GOLDEN_DIR = default_golden_dir()


class TestRunOne:
    def test_outcomes_match_committed_goldens(self):
        for name in ("uniform", "fleet-hot-shard"):
            outcome = run_one(name)
            assert outcome.ok and outcome.name == name
            assert_dict_matches_golden(name, json.loads(outcome.report_json), GOLDEN_DIR)

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
            assert load_golden(name, GOLDEN_DIR)["schema_version"] == SCHEMA_VERSION


class TestGoldenDiffUX:
    def test_mismatch_error_names_the_value_that_moved(self):
        report = ScenarioRunner().run(get_scenario("uniform"))
        live = report.to_dict()
        switches = live["cluster"]["device_switches"]
        live["cluster"]["device_switches"] += 1
        with pytest.raises(GoldenMismatchError) as excinfo:
            assert_dict_matches_golden("uniform", live, GOLDEN_DIR)
        message = str(excinfo.value)
        assert "(1 mismatch(es))" in message
        assert f"$.cluster.device_switches: live={switches + 1} golden={switches}" in message

    def test_matching_report_raises_nothing(self):
        report = ScenarioRunner().run(get_scenario("uniform"))
        assert_dict_matches_golden(report.scenario, report.to_dict(), GOLDEN_DIR)


#: The oldest CPython the program supports (the checker's ``py39-floor``).
FLOOR = (3, 9)


def _other_interpreters() -> Tuple[List[str], List[str]]:
    """``(every CPython found here of another version than the one running
    the tests and at least FLOOR, those found below FLOOR)``.

    Found means on ``PATH`` as ``python3.N``, or a ``python3.N`` under a
    pyenv version or a conda install in the home directory.  Each is named
    by the executable it really runs, once: a symlink or a version
    manager's shim to one already found does not count again, nor does a
    shim that runs nothing.
    """
    home = Path.home()
    candidates = [shutil.which(f"python3.{minor}") for minor in range(9, 16)]
    for pattern in (".pyenv/versions/*/bin", "miniconda*/bin", "anaconda*/bin"):
        candidates += [str(path) for directory in sorted(home.glob(pattern))
                       for path in sorted(directory.glob("python3.*"))]
    probe_code = "import os, sys; print(*sys.version_info[:2], os.path.realpath(sys.executable))"
    supported: List[str] = []
    below: List[str] = []
    seen = {os.path.realpath(sys.executable)}
    for candidate in candidates:
        if candidate is None or not re.search(r"python3\.\d+$", candidate):
            continue
        try:
            probe = subprocess.run(
                [candidate, "-c", probe_code], capture_output=True, text=True, timeout=30
            )
        except OSError:
            continue
        if probe.returncode != 0:
            continue
        major, minor, executable = probe.stdout.split(maxsplit=2)
        executable = executable.strip()
        if executable in seen or [major, minor] == [str(part) for part in sys.version_info[:2]]:
            continue
        seen.add(executable)
        (supported if (int(major), int(minor)) >= FLOOR else below).append(executable)
    return supported, below


def _interpreters_to_check() -> List[str]:
    """The supported other interpreters; the ones below the floor are named
    in a warning, and the test skips if there is none."""
    supported, below = _other_interpreters()
    if below:
        floor = ".".join(map(str, FLOOR))
        warnings.warn(f"below the {floor} floor, not checked: {', '.join(below)}", stacklevel=2)
    if not supported:
        pytest.skip("no other supported Python interpreter on this machine")
    return supported


def _child_options() -> Dict[str, Any]:
    """``Popen`` options for a check run from the repository root on ``src``."""
    root = Path(__file__).resolve().parent.parent
    return {
        "cwd": root,
        "env": {**os.environ, "PYTHONPATH": str(root / "src")},
        "stdout": subprocess.PIPE,
        "stderr": subprocess.PIPE,
        "text": True,
    }


def _assert_passes_everywhere(arguments: List[str], expected: str) -> None:
    """Run ``arguments`` under every interpreter to check at once; fail
    naming every one that did not exit 0 with ``expected`` in its output.
    A run still going when this returns or raises (a timeout) is killed."""
    runs = {
        interpreter: subprocess.Popen([interpreter, *arguments], **_child_options())
        for interpreter in _interpreters_to_check()
    }
    failed = []
    try:
        for interpreter, run in runs.items():
            stdout, stderr = run.communicate(timeout=600)
            if run.returncode != 0 or expected not in stdout:
                failed.append(f"{interpreter}:\n{stdout[-2000:]}{stderr[-2000:]}")
    finally:
        for run in runs.values():
            if run.poll() is None:
                run.kill()
                run.communicate()
    assert not failed, "failed under:\n" + "\n".join(failed)


class TestSecondInterpreter:
    """Each check runs under every other supported CPython at once (they
    are independent processes) and names each interpreter it failed on."""

    def test_goldens_hold_under_another_cpython(self):
        """The goldens are byte-exact, float digests included, so they hold
        only if nothing on the way leans on one CPython's dict, sort or
        hashing behaviour; the standard library is all the check needs."""
        _assert_passes_everywhere(
            ["-m", "repro.scenarios", "--check"], f"checked {len(scenario_names())} scenarios"
        )

    def test_catalog_digests_hold_under_another_cpython(self):
        """Every catalog is drawn from the standard library's ``random``
        through the generator's drawers, which repeat ``randint`` / ``choice``
        / ``uniform`` / ``choices`` call for call; a version whose ``random``
        draws otherwise changes a digest here before any golden."""
        script = str(Path(__file__).resolve().parent / "catalog_digest.py")
        _assert_passes_everywhere(
            [script, json.dumps(FAST_PINS)], f"{len(FAST_PINS)} catalogs hold"
        )

    def test_timeline_digests_hold_under_another_cpython(self):
        """Every instant of every pinned run, not only the totals the
        goldens and the ledger pins hold (``tests/timeline_digest.py``)."""
        script = str(Path(__file__).resolve().parent / "timeline_digest.py")
        _assert_passes_everywhere([script], f"{len(TIMELINE_PINS)} timelines hold")

    def test_ledger_pins_hold_under_another_cpython(self):
        """The ledger pins a run's simulated means, not only its report, and
        a mean that ``sum()`` takes is compensated on CPython 3.12 and later:
        ``vanilla-pull``'s moved by one ulp before ``mean`` folded left to
        right.  The quick run checks every pin of its seed."""
        ledger = str(Path(__file__).resolve().parent.parent / "ledger" / "run.py")
        quick = ["--workload", "vanilla-pull", "--quick", "--seconds", "0", "--trace", "0"]
        _assert_passes_everywhere([ledger, *quick], '"correct": true')
