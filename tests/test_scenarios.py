"""Scenario engine: registry, runner, invariants and golden metrics."""

from __future__ import annotations

import json
import re
from functools import partial

import pytest

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig
from repro.csd.device import BusyInterval
from repro.csd.request import GetRequest
from repro.exceptions import GoldenMismatchError, InvariantViolation, ScenarioError
from repro.fleet.spec import FleetSpec
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    all_scenarios,
    assert_matches_golden,
    check_invariants,
    get_scenario,
    golden_path,
    load_golden,
    scenario_names,
    uniform_tenants,
)
from repro.scenarios.golden import diff_values
from repro.scenarios.invariants import (
    check_cache_bounds,
    check_conservation,
    check_fleet_failover,
    check_fleet_placement,
    check_fleet_rebalance,
    check_monotone_clock,
    check_no_starvation,
    check_replication_repair,
    starvation_bound,
)
from repro.scenarios.runner import build_layout, build_scheduler
from repro.service import StorageService
from repro.workloads import tpch

RUNNER = ScenarioRunner()


def scenario_params():
    """All registered scenarios, SF-50-scale ones carrying the slow marker."""
    return [
        pytest.param(name, marks=pytest.mark.slow)
        if get_scenario(name).scale == "sf50"
        else name
        for name in scenario_names()
    ]


class TestRegistry:
    def test_at_least_ten_scenarios_registered(self):
        assert len(scenario_names()) >= 10

    def test_required_scenario_families_present(self):
        names = set(scenario_names())
        assert {
            "uniform",
            "bursty",
            "hot-tenant-skew",
            "straggler-device",
            "cache-starved",
            "mixed-fleet",
            "large-fanout",
            "single-tenant-saturation",
            "fairness-adversarial",
            "dataset-scaleout",
        } <= names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            get_scenario("no-such-scenario")

    def test_builders_return_fresh_specs(self):
        assert get_scenario("uniform") is not get_scenario("uniform")

    def test_all_scenarios_lists_every_name(self):
        assert [spec.name for spec in all_scenarios()] == scenario_names()


class TestRunner:
    @pytest.mark.parametrize("name", scenario_params())
    def test_scenario_matches_committed_golden(self, name):
        """The regression net: live runs must match the committed goldens."""
        report = RUNNER.run(get_scenario(name))
        assert_matches_golden(report)

    @pytest.mark.parametrize("name", [*scenario_names()])
    def test_every_scenario_has_a_committed_golden(self, name):
        assert golden_path(name).exists()

    def test_reports_validate_core_invariants(self):
        report = RUNNER.run(get_scenario("uniform"))
        assert "conservation" in report.invariants_checked
        assert "monotone-clock" in report.invariants_checked
        assert "no-starvation" in report.invariants_checked
        assert "cache-bounds" in report.invariants_checked

    def test_report_json_is_canonical(self):
        report = RUNNER.run(get_scenario("uniform"))
        text = report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text

    def test_vanilla_tenants_skip_cache_invariant(self):
        spec = ScenarioSpec(
            name="all-vanilla",
            description="only pull-based tenants",
            tenants=uniform_tenants(2, "tpch:q12", mode="vanilla"),
        )
        report = RUNNER.run(spec)
        assert "cache-bounds" not in report.invariants_checked
        assert report.cache["hits"] == 0.0

    def test_layout_and_scheduler_resolution_errors(self):
        base = dict(
            description="x", tenants=uniform_tenants(2, "tpch:q12", cache_capacity=8)
        )
        with pytest.raises(ScenarioError):
            build_layout(ScenarioSpec(name="bad", layout="round-robin", **base))
        with pytest.raises(ScenarioError):
            build_layout(ScenarioSpec(name="bad", layout="skewed", **base))
        spec = ScenarioSpec(name="ok", scheduler="slack-fcfs", scheduler_param=4, **base)
        assert build_scheduler(spec).slack == 4


class TestGoldenDiff:
    def test_diff_reports_numeric_drift(self):
        report = RUNNER.run(get_scenario("uniform"))
        golden = load_golden("uniform")
        live = report.to_dict()
        live["cluster"]["device_switches"] += 1
        mismatches = diff_values(live, golden)
        assert any("device_switches" in mismatch for mismatch in mismatches)

    def test_diff_tolerates_float_noise(self):
        golden = load_golden("uniform")
        live = json.loads(json.dumps(golden))
        live["cluster"]["mean_time"] *= 1.0 + 1e-9
        assert diff_values(live, golden) == []

    def test_missing_golden_raises_with_regen_hint(self):
        spec = ScenarioSpec(
            name="never-blessed",
            description="x",
            tenants=uniform_tenants(1, "tpch:q12", cache_capacity=8),
        )
        report = RUNNER.run(spec)
        with pytest.raises(GoldenMismatchError, match="regen-golden"):
            assert_matches_golden(report)

    def test_structural_divergence_reported(self):
        golden = load_golden("uniform")
        live = json.loads(json.dumps(golden))
        del live["clients"]["tenant0"]
        live["clients"]["intruder"] = {"mode": "skipper"}
        mismatches = diff_values(live, golden)
        assert any("tenant0" in mismatch for mismatch in mismatches)
        assert any("intruder" in mismatch for mismatch in mismatches)


def _run_service(fleet=None, num_clients=2, repetitions=1):
    catalog = tpch.build_catalog("tiny", seed=42)
    config = ClusterConfig(
        client_specs=[
            ClientSpec(
                client_id=f"c{index}",
                queries=[tpch.q12()],
                cache_capacity=8,
                repetitions=repetitions,
            )
            for index in range(num_clients)
        ],
        fleet_spec=fleet,
    )
    service = StorageService(config, catalog=catalog)
    return service, service.run()


def _first_transfer(service):
    """(device, log index, interval) of the first transfer any device served."""
    return next(
        (device, index, interval)
        for device in service.devices
        for index, interval in enumerate(device.busy_intervals)
        if interval.kind == "transfer"
    )


#: One checker body for both back ends: every perturbation must make it fire
#: on the paper's single CSD and on a sharded, replicated fleet alike.
BACKENDS = pytest.mark.parametrize(
    "fleet", [None, FleetSpec(devices=3, replication=2)], ids=["single-device", "fleet"]
)


def _violations(service, result):
    """The message of every invariant check that fires on ``result``."""
    checks = [
        partial(check, service, result)
        for check in (check_conservation, check_monotone_clock, check_no_starvation)
    ]
    checks.append(partial(check_cache_bounds, result))
    if service.fleet is not None:
        checks += [
            partial(check, service)
            for check in (
                check_fleet_placement,
                check_fleet_failover,
                check_fleet_rebalance,
                check_replication_repair,
            )
        ]
    fired = []
    for check in checks:
        try:
            check()
        except InvariantViolation as violation:
            fired.append(str(violation))
    return fired


def _assert_only_violation(service, result, pattern):
    """Exactly one check fires, and with the violation ``pattern`` names."""
    fired = _violations(service, result)
    assert len(fired) == 1 and re.search(pattern, fired[0]), fired


class TestInvariantChecker:
    @BACKENDS
    def test_clean_run_passes_all_checks(self, fleet):
        service, result = _run_service(fleet)
        checked = check_invariants(service, result)
        assert set(checked) >= {"conservation", "monotone-clock", "no-starvation"}

    @BACKENDS
    def test_conservation_detects_lost_objects(self, fleet):
        service, result = _run_service(fleet)
        service.devices[0].stats.objects_served += 1
        with pytest.raises(InvariantViolation, match="objects-served conservation"):
            check_conservation(service, result)

    @BACKENDS
    def test_conservation_detects_misplaced_transfer(self, fleet):
        service, result = _run_service(fleet)
        device, index, interval = _first_transfer(service)
        device.busy_intervals[index] = interval._replace(group_id=interval.group_id + 1)
        with pytest.raises(InvariantViolation, match="layout places"):
            check_conservation(service, result)

    @BACKENDS
    def test_conservation_detects_a_request_left_queued(self, fleet):
        service, result = _run_service(fleet)
        device, _index, interval = _first_transfer(service)
        stranded = GetRequest(
            interval.object_key, interval.client_id, "stranded", service.env.event()
        )
        device.scheduler.add_request(stranded, interval.group_id)
        with pytest.raises(InvariantViolation, match="still has pending requests"):
            check_conservation(service, result)

    def test_conservation_detects_a_request_routed_twice(self):
        service, result = _run_service(FleetSpec(devices=3, replication=2))
        service.fleet.stats.requests_routed += 1
        with pytest.raises(InvariantViolation, match="router routed"):
            check_conservation(service, result)

    @BACKENDS
    def test_monotone_clock_detects_time_travel(self, fleet):
        service, result = _run_service(fleet)
        device, _index, interval = _first_transfer(service)
        device.busy_intervals.append(
            BusyInterval(start=0.0, end=interval.end / 2, kind="switch", group_id=0)
        )
        with pytest.raises(InvariantViolation, match="out of order"):
            check_monotone_clock(service, result)

    @BACKENDS
    def test_monotone_clock_detects_inverted_interval(self, fleet):
        service, result = _run_service(fleet)
        service.devices[-1].busy_intervals[0] = BusyInterval(
            start=5.0, end=1.0, kind="switch", group_id=0
        )
        with pytest.raises(InvariantViolation, match="ends before"):
            check_monotone_clock(service, result)


    @BACKENDS
    def test_conservation_detects_an_extra_received_request(self, fleet):
        service, result = _run_service(fleet)
        assert _violations(service, result) == []
        service.devices[0].stats.requests_received += 1
        _assert_only_violation(service, result, "devices received")

    @BACKENDS
    def test_monotone_clock_detects_work_after_the_end(self, fleet):
        service, result = _run_service(fleet)
        end = result.total_simulated_time
        service.devices[-1].busy_intervals.append(BusyInterval(end, end + 1.0, "switch", 0))
        _assert_only_violation(service, result, "after the simulation ended")

    @BACKENDS
    def test_monotone_clock_detects_a_query_ending_before_it_starts(self, fleet):
        service, result = _run_service(fleet)
        query = result.results_by_client["c0"][0]
        query.start_time, query.end_time = query.end_time, query.start_time
        _assert_only_violation(service, result, "ended before it started")

    @BACKENDS
    def test_monotone_clock_detects_overlapping_queries(self, fleet):
        service, result = _run_service(fleet, repetitions=2)
        first, second = result.results_by_client["c1"]
        second.start_time = first.end_time - 1.0
        _assert_only_violation(service, result, "queries overlap")

    @BACKENDS
    def test_monotone_clock_detects_a_blocked_interval_outside_its_query(self, fleet):
        service, result = _run_service(fleet)
        query = result.results_by_client["c0"][0]
        query.blocked_intervals.append((query.end_time, query.end_time + 1.0))
        _assert_only_violation(service, result, "outside the query's execution window")

    @BACKENDS
    def test_cache_bounds_detects_an_overfull_cache(self, fleet):
        service, result = _run_service(fleet)
        query = result.results_by_client["c1"][0]
        query.cache_peak_occupancy = query.cache_capacity + 1
        _assert_only_violation(service, result, "above its capacity of 8")

    @BACKENDS
    def test_no_starvation_fires_one_switch_past_the_bound(self, fleet):
        service, result = _run_service(fleet)
        device = service.devices[0]
        scheduler = device.scheduler
        bound = starvation_bound(device.layout.num_groups, 2, scheduler.fairness_constant)
        scheduler.max_waiting_seen = bound
        assert _violations(service, result) == []
        scheduler.max_waiting_seen = bound + 1
        _assert_only_violation(service, result, f"above the starvation bound {bound} ")


class TestSpecSerialization:
    @pytest.mark.parametrize("name", [*scenario_names()])
    def test_spec_dict_matches_golden_spec(self, name):
        spec = get_scenario(name)
        golden = load_golden(name)
        assert spec.to_dict() == golden["spec"]

    def test_tenant_workloads_are_deduplicated(self):
        tenant = TenantSpec(
            tenant_id="t", queries=("tpch:q1", "tpch:q12", "ssb:q1_1"), cache_capacity=8
        )
        assert tenant.workloads() == ["tpch", "ssb"]


class TestCommandLine:
    @pytest.mark.parametrize("mode", ["--list", "--check", "--run-all"])
    def test_trace_without_run_is_a_usage_error(self, mode, tmp_path, capsys):
        """``--list --trace f.json`` used to list and silently drop ``--trace``."""
        from repro.scenarios.__main__ import main

        target = tmp_path / "trace.json"
        assert main([mode, "--trace", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --trace requires --run\n"
        assert captured.out == ""
        assert not target.exists()
