"""Fleet scenarios: registry coverage, invariants and report contents.

SF-50-scale scenarios carry the ``slow`` marker: the default tier-1 run
(``-m "not slow"`` via pytest.ini) skips them, a dedicated CI job runs
``-m slow``.  Reports are built lazily and memoized so deselecting the slow
tests really does skip the expensive runs.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.scenarios import (
    ScenarioRunner,
    assert_dict_matches_golden,
    get_scenario,
    golden_path,
    scenario_names,
)
from repro.scenarios.golden import default_golden_dir
from repro.scenarios.report import ScenarioReport

GOLDEN_DIR = default_golden_dir()

FAST_FLEET_SCENARIOS = [
    "fleet-hot-shard",
    "fleet-device-loss",
    "fleet-elastic-drain",
    "fleet-heterogeneous",
    "fleet-rebalance-under-load",
    "fleet-load-aware-baseline",
    "fleet-load-aware",
    "fleet-adaptive-rebalance",
    "fleet-replication-upgrade",
    "fleet-repair-after-loss",
    "fleet-throttled-rebalance",
]

SLOW_FLEET_SCENARIOS = [
    "fleet-replicated-read",
    "fleet-loss-at-scale",
]

FLEET_PARAMS = [*FAST_FLEET_SCENARIOS] + [
    pytest.param(name, marks=pytest.mark.slow) for name in SLOW_FLEET_SCENARIOS
]

LOSS_PARAMS = [
    "fleet-device-loss",
    pytest.param("fleet-loss-at-scale", marks=pytest.mark.slow),
]

ELASTIC_SCENARIOS = [
    "fleet-elastic-drain",
    "fleet-rebalance-under-load",
    "fleet-adaptive-rebalance",
    "fleet-replication-upgrade",
    "fleet-repair-after-loss",
    "fleet-throttled-rebalance",
]

_RUNNER = ScenarioRunner()
_REPORTS: Dict[str, ScenarioReport] = {}


def report_for(name: str) -> ScenarioReport:
    """Run a scenario at most once per session (only when actually needed)."""
    if name not in _REPORTS:
        _REPORTS[name] = _RUNNER.run(get_scenario(name))
    return _REPORTS[name]


class TestRegistry:
    def test_fleet_scenarios_registered_with_goldens(self):
        names = set(scenario_names())
        for name in FAST_FLEET_SCENARIOS + SLOW_FLEET_SCENARIOS:
            assert name in names
            assert golden_path(name, GOLDEN_DIR).exists()

    def test_every_fleet_scenario_is_listed(self):
        """The lists above are every registered fleet scenario, the SF-50 ones
        slow, so a fleet scenario cannot escape the checks below."""
        fleet = {name: get_scenario(name) for name in scenario_names()}
        fleet = {name: spec for name, spec in fleet.items() if spec.fleet is not None}
        assert sorted(FAST_FLEET_SCENARIOS + SLOW_FLEET_SCENARIOS) == sorted(fleet)
        assert sorted(SLOW_FLEET_SCENARIOS) == sorted(
            name for name, spec in fleet.items() if spec.scale == "sf50"
        )

    @pytest.mark.parametrize("name", FLEET_PARAMS)
    def test_fleet_scenarios_match_goldens(self, name):
        assert_dict_matches_golden(name, report_for(name).to_dict(), GOLDEN_DIR)


class TestInvariants:
    @pytest.mark.parametrize("name", FLEET_PARAMS)
    def test_fleet_invariants_checked(self, name):
        checked = report_for(name).invariants_checked
        assert "conservation" in checked
        assert "monotone-clock" in checked
        assert "fleet-placement" in checked

    @pytest.mark.parametrize("name", LOSS_PARAMS)
    def test_failover_invariant_runs_on_loss_scenarios(self, name):
        assert "fleet-failover" in report_for(name).invariants_checked

    @pytest.mark.parametrize("name", ELASTIC_SCENARIOS)
    def test_rebalance_invariant_runs_on_elastic_scenarios(self, name):
        assert "fleet-rebalance" in report_for(name).invariants_checked


class TestReports:
    def test_fleet_section_present_only_for_fleet_scenarios(self):
        fleet_report = report_for("fleet-hot-shard")
        assert fleet_report.fleet is not None
        assert fleet_report.fleet["devices"] == 3
        assert fleet_report.rebalance is not None
        assert fleet_report.rebalance["epoch"] == 0
        single_report = report_for("uniform")
        assert single_report.fleet is None
        assert single_report.rebalance is None
        assert single_report.to_dict()["fleet"] is None
        assert single_report.to_dict()["rebalance"] is None

    @pytest.mark.parametrize("name", LOSS_PARAMS)
    def test_device_loss_reports_zero_lost_objects(self, name):
        fleet = report_for(name).fleet
        assert fleet["lost_objects"] == 0
        assert fleet["failed_over_requests"] > 0
        dead = [entry for entry in fleet["per_device"].values() if not entry["alive"]]
        assert len(dead) == 1
        assert dead[0]["failed_at"] is not None

    @pytest.mark.parametrize("name", LOSS_PARAMS)
    def test_failures_advance_the_epoch_without_migration(self, name):
        rebalance = report_for(name).rebalance
        assert rebalance["epoch"] == 1
        assert rebalance["events"][0]["kind"] == "failure"
        # Fail-stop re-serves from surviving replicas; nothing migrates.
        assert rebalance["plans"] == []
        assert rebalance["keys_moved_total"] == 0

    def test_hot_shard_shows_imbalance(self):
        fleet = report_for("fleet-hot-shard").fleet
        assert fleet["imbalance_coefficient"] > 0.05
        # The hot tenant dominates service, dragging inter-tenant fairness
        # well below 1.
        assert fleet["tenant_fairness"] < 0.95

    @pytest.mark.slow
    def test_replicated_read_spreads_tenants_across_devices(self):
        spread = report_for("fleet-replicated-read").fleet["per_tenant_spread"]
        assert spread, "expected per-tenant spread metrics"
        # Least-loaded over 3 replicas: every tenant is served by more than
        # one device (a spread of 1/3 would mean a single device).
        assert all(value > 0.34 for value in spread.values())

    @pytest.mark.parametrize("name", FLEET_PARAMS)
    def test_utilization_bounded_by_one(self, name):
        for entry in report_for(name).fleet["per_device"].values():
            assert 0.0 <= entry["utilization"] <= 1.0 + 1e-9
