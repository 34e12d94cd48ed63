"""Parallel scenario execution, perf budgets and report schema/diff UX."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import BudgetExceededError, GoldenMismatchError
from repro.scenarios import (
    ScenarioRunner,
    assert_dict_matches_golden,
    assert_matches_golden,
    check_budget,
    get_scenario,
    load_budgets,
    load_golden,
    run_scenarios,
    scenario_names,
    unified_diff_summary,
    write_budgets,
)
from repro.scenarios.budgets import budgets_path
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


class TestBudgets:
    def test_committed_budgets_cover_every_scenario(self):
        document = load_budgets()
        assert set(document["budgets"]) == set(scenario_names())

    def test_current_runs_fit_their_budgets(self):
        document = load_budgets()
        report = ScenarioRunner().run(get_scenario("uniform"))
        check_budget("uniform", report.total_simulated_time, document)

    def test_blown_budget_raises_with_regen_hint(self):
        document = {"default_tolerance": 0.1, "budgets": {"x": {"simulated_time": 100.0}}}
        check_budget("x", 109.9, document)  # within tolerance
        with pytest.raises(BudgetExceededError, match="regen-budgets"):
            check_budget("x", 111.0, document)

    def test_per_scenario_tolerance_overrides_default(self):
        document = {
            "default_tolerance": 0.5,
            "budgets": {"x": {"simulated_time": 100.0, "tolerance": 0.01}},
        }
        with pytest.raises(BudgetExceededError):
            check_budget("x", 102.0, document)

    def test_missing_scenario_budget_fails(self):
        with pytest.raises(BudgetExceededError, match="no committed perf budget"):
            check_budget("never-budgeted", 1.0, {"budgets": {}})

    def test_write_and_reload_roundtrip(self, tmp_path):
        path = write_budgets({"a": 12.5, "b": 900.0}, golden_dir=tmp_path)
        assert path == budgets_path(tmp_path)
        document = load_budgets(golden_dir=tmp_path)
        assert document["budgets"]["a"]["simulated_time"] == 12.5
        check_budget("b", 900.0, document)

    def test_missing_budgets_file_fails_with_hint(self, tmp_path):
        with pytest.raises(BudgetExceededError, match="regen-budgets"):
            load_budgets(golden_dir=tmp_path)

    def test_corrupt_budgets_json_fails_as_budget_error(self, tmp_path):
        budgets_path(tmp_path).parent.mkdir(parents=True, exist_ok=True)
        budgets_path(tmp_path).write_text("{not json")
        with pytest.raises(BudgetExceededError, match="not valid JSON"):
            load_budgets(golden_dir=tmp_path)
        budgets_path(tmp_path).write_text('{"budgets": []}')
        with pytest.raises(BudgetExceededError, match="malformed"):
            load_budgets(golden_dir=tmp_path)

    def test_malformed_budget_entry_fails_as_budget_error(self):
        # A budget entry missing simulated_time must not escape as KeyError:
        # --check relies on every budget failure being a ReproError so the
        # remaining scenarios keep being checked.  The error names the
        # missing key instead of reporting a generic "malformed" entry.
        with pytest.raises(BudgetExceededError, match="missing its 'simulated_time'"):
            check_budget("x", 1.0, {"budgets": {"x": {}}})
        with pytest.raises(BudgetExceededError, match="missing its 'simulated_time'"):
            check_budget("x", 1.0, {"budgets": {"x": {"tolerance": 0.5}}})
        with pytest.raises(BudgetExceededError, match="malformed"):
            check_budget("x", 1.0, {"budgets": {"x": {"simulated_time": "fast"}}})


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
