"""Scenario engine: registry, runner, invariants and golden metrics."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from functools import partial

import pytest

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig
from repro.csd.device import BusyInterval
from repro.csd.disk_group import DiskGroupLayout
from repro.csd.request import GetRequest
from repro.exceptions import GoldenMismatchError, InvariantViolation, ScenarioError
from repro.fleet.spec import DeviceFailure, DeviceJoin, DeviceLeave, FleetSpec, SetReplication
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    assert_dict_matches_golden,
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

    def test_every_name_builds_its_spec(self):
        assert [get_scenario(name).name for name in scenario_names()] == scenario_names()


class TestRunner:
    @pytest.mark.parametrize("name", scenario_params())
    def test_scenario_matches_committed_golden(self, name):
        """The regression net: live runs must match the committed goldens."""
        report = RUNNER.run(get_scenario(name))
        assert_dict_matches_golden(report.scenario, report.to_dict())

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
            assert_dict_matches_golden(report.scenario, report.to_dict())

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

#: A join at 20 s and a graceful leave at 60 s at R = 1: the leaver is the
#: last holder of its keys, so it reads for the plan after leaving.
ELASTIC = FleetSpec(
    devices=3, replication=1, events=(DeviceJoin(3, 20.0), DeviceLeave(0, 60.0))
)
#: The same at R = 2, then an R = 3 upgrade: trims, and a healed end state.
REPLICATED = FleetSpec(
    devices=4,
    replication=2,
    events=(DeviceJoin(4, 20.0), DeviceLeave(0, 60.0), SetReplication(3, 100.0)),
)

#: Device csd0 fails at 20 s, in the middle of a transfer it started at 19.6 s.
LOSS = FleetSpec(devices=3, replication=2, failures=(DeviceFailure(0, 20.0),))

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

    @pytest.mark.parametrize(
        "damage, pattern",
        [
            (lambda replicas, spare: replicas[:1], "expected exactly 2 distinct devices"),
            (lambda replicas, spare: (replicas[0],) * 2, "expected exactly 2 distinct devices"),
            (lambda replicas, spare: (replicas[0], "csd-ghost"), "unknown or empty device 'csd-ghost'"),
            (lambda replicas, spare: (replicas[0], spare), "does not hold a replica"),
        ],
        ids=["replica-count", "duplicate-replica", "unknown-member", "not-in-layout"],
    )
    def test_fleet_placement_detects_a_damaged_replica_set(self, damage, pattern):
        service, result = _run_service(FleetSpec(devices=3, replication=2))
        placement = service.fleet.placement
        assert _violations(service, result) == []
        key, replicas = next(iter(placement.items()))
        (spare,) = [m.device_id for m in service.fleet.members if m.device_id not in replicas]
        assert not service.fleet.membership.by_id[spare].device.layout.has_object(key)
        placement[key] = damage(replicas, spare)
        _assert_only_violation(service, result, pattern)

    def test_fleet_placement_detects_a_member_without_a_device(self):
        service, _result = _run_service(FleetSpec(devices=3, replication=2))
        replicas = next(iter(service.fleet.placement.values()))
        service.fleet.membership.by_id[replicas[-1]].device = None
        with pytest.raises(InvariantViolation, match=f"unknown or empty device {replicas[-1]!r}"):
            check_fleet_placement(service)

    @pytest.mark.parametrize("fairness_constant", [0, 0.0, -1.0])
    def test_starvation_bound_is_undefined_without_a_positive_k(self, fairness_constant):
        with pytest.raises(InvariantViolation, match="undefined for K <= 0"):
            starvation_bound(4, 2, fairness_constant)

    def test_fleet_failover_detects_work_after_a_failure(self):
        service, result = _run_service(LOSS)
        dead = service.fleet.membership.by_id["csd0"]
        last_start = dead.device.busy_intervals[-1].start
        assert last_start < dead.failed_at == 20.0
        dead.failed_at = last_start
        assert _violations(service, result) == []
        dead.failed_at = last_start - 0.1
        _assert_only_violation(
            service, result, f"dead device 'csd0' started work at {last_start}, after failing"
        )

    def test_fleet_failover_detects_a_request_left_queued(self):
        service, result = _run_service(LOSS)
        assert check_fleet_failover(service)
        device, _index, interval = _first_transfer(service)
        stranded = GetRequest(
            interval.object_key, interval.client_id, "stranded", service.env.event()
        )
        device.scheduler.add_request(stranded, interval.group_id)
        with pytest.raises(InvariantViolation, match=r"1 request\(s\) left queued in the fleet"):
            check_fleet_failover(service)

    def test_fleet_rebalance_detects_an_epoch_out_of_order(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        log = service.fleet.membership.epoch_log
        log[0] = replace(log[0], epoch=2)
        _assert_only_violation(service, result, "epoch log out of order: change #1 opened epoch 2")

    def test_fleet_rebalance_detects_an_epoch_opened_before_the_last(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        log = service.fleet.membership.epoch_log
        log[1] = replace(log[1], at_seconds=log[0].at_seconds)
        assert _violations(service, result) == []
        log[1] = replace(log[1], at_seconds=log[0].at_seconds - 1.0)
        _assert_only_violation(service, result, "epoch 2 opened at 19.0, before epoch 1's")

    def test_fleet_rebalance_detects_an_epoch_count_mismatch(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        service.fleet.membership.epoch += 1
        _assert_only_violation(service, result, "membership epoch 3 does not match the 2")

    def test_fleet_rebalance_detects_a_plan_past_the_migration_bound(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        plan = service.controller.migration_plans[0]
        assert (plan.kind, plan.replication, plan.devices_before, plan.keys_moved) == (
            "join", 1, 3, 3
        )
        # bound = min(K, ceil(2·R·K/N)) with N = 3: K = 4 allows 3 keys, K = 3 only 2.
        plan.total_keys = 4
        assert _violations(service, result) == []
        plan.total_keys = 3
        _assert_only_violation(service, result, "moved 3 keys, above the bounded-migration")

    @pytest.mark.parametrize("dest", ["csd-ghost", "spare"])
    def test_fleet_rebalance_detects_a_key_that_never_landed(self, dest):
        service, result = _run_service(ELASTIC, repetitions=2)
        plan = service.controller.migration_plans[0]
        move = plan.moves[0]
        if dest == "spare":
            dest = next(
                member.device_id
                for member in service.fleet.members
                if not member.device.layout.has_object(move.object_key)
            )
        plan.moves[0] = move._replace(dest=dest)
        _assert_only_violation(
            service, result, f"key {move.object_key!r} never landed in destination {dest!r}"
        )

    def test_fleet_rebalance_detects_foreground_work_after_a_leave(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        leaver = service.fleet.membership.by_id["csd0"]
        log = leaver.device.busy_intervals
        # The leaver still reads for the plan after leaving (R = 1: it is the
        # last holder of its keys), which is allowed.
        assert any(i.kind == "migration" and i.start > leaver.left_at for i in log)
        last_foreground = max(i.start for i in log if i.kind != "migration")
        leaver.left_at = last_foreground
        assert _violations(service, result) == []
        leaver.left_at = last_foreground - 1.0
        _assert_only_violation(service, result, "departed device 'csd0' performed transfer work")

    def test_fleet_rebalance_detects_work_before_a_join(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        joiner = service.fleet.membership.by_id["csd3"]
        assert joiner.device.busy_intervals[0].start == joiner.joined_at == 20.0
        assert _violations(service, result) == []
        joiner.joined_at = 21.0
        _assert_only_violation(
            service, result, "device 'csd3' performed work at 20.0, before joining at 21.0"
        )

    def test_fleet_rebalance_detects_a_request_left_queued(self):
        service, result = _run_service(ELASTIC, repetitions=2)
        assert check_fleet_rebalance(service)
        device, _index, interval = _first_transfer(service)
        stranded = GetRequest(
            interval.object_key, interval.client_id, "stranded", service.env.event()
        )
        device.scheduler.add_request(stranded, interval.group_id)
        with pytest.raises(InvariantViolation, match=r"1 request\(s\) .*across the rebalance"):
            check_fleet_rebalance(service)

    def test_replication_repair_detects_a_trim_of_the_last_replica(self):
        service, result = _run_service(REPLICATED, repetitions=2)
        plan = service.controller.migration_plans[0]
        trim = plan.trims[0]
        plan.trims[0] = trim._replace(survivors=1)
        assert _violations(service, result) == []
        plan.trims[0] = trim._replace(survivors=0)
        _assert_only_violation(
            service, result, f"trim of {trim.object_key!r} off {trim.device!r} dropped"
        )

    @pytest.mark.parametrize("outstanding", [1, -1])
    def test_replication_repair_detects_a_nonzero_outstanding_count(self, outstanding):
        service, result = _run_service(REPLICATED, repetitions=2)
        service.fleet.membership.by_id["csd2"].outstanding = outstanding
        _assert_only_violation(
            service, result, f"'csd2' ended the run with {outstanding} outstanding"
        )

    def test_replication_repair_detects_a_key_below_its_live_replica_target(self):
        service, result = _run_service(REPLICATED, repetitions=2)
        assert service.controller.effective_replication == 3
        service.fleet.membership.by_id["csd1"].alive = False
        _assert_only_violation(service, result, "holds 2 live replica.* expected 3")

    def test_replication_repair_detects_a_live_replica_missing_from_its_layout(self):
        service, result = _run_service(REPLICATED, repetitions=2)
        assert check_replication_repair(service)
        key, replicas = next(iter(service.fleet.placement.items()))
        device = service.fleet.membership.by_id[replicas[0]].device
        layout = device.layout
        device.layout = DiskGroupLayout(
            {other: layout.group_of(other) for other in layout.placed_keys if other != key}
        )
        with pytest.raises(
            InvariantViolation, match=f"replica of {key!r} on {replicas[0]!r} is not physically"
        ):
            check_replication_repair(service)


class TestSpecSerialization:
    @pytest.mark.parametrize("name", [*scenario_names()])
    def test_spec_dict_matches_golden_spec(self, name):
        """Compared as JSON text, not with ``==``, under which ``1 == 1.0 ==
        True`` would hide a serialisation that changed a value's type."""
        spec = get_scenario(name)
        golden = load_golden(name)
        assert json.dumps(spec.to_dict(), sort_keys=True) == json.dumps(
            golden["spec"], sort_keys=True
        )

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

    def test_list_prints_one_row_per_scenario(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "29 registered scenarios" in out
        rows = [line.split("|")[0].strip() for line in out.splitlines() if "|" in line]
        assert rows[1:] == scenario_names()

    def test_run_prints_the_committed_golden(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["--run", "uniform"]) == 0
        assert capsys.readouterr().out == golden_path("uniform").read_text()

    def test_regen_check_and_run_all_over_two_scenarios(self, tmp_path, capsys, monkeypatch):
        """The whole-registry modes, driven in-process over two small scenarios."""
        from repro.scenarios import __main__ as cli

        names = ["fleet-uniform", "uniform"]
        monkeypatch.setattr(cli, "scenario_names", lambda: names)
        golden_dir = str(tmp_path)

        assert cli.main(["--regen-golden", "--golden-dir", golden_dir]) == 0
        assert [path.name for path in sorted(tmp_path.iterdir())] == [f"{n}.json" for n in names]
        for name in names:
            assert (tmp_path / f"{name}.json").read_text() == golden_path(name).read_text()
        capsys.readouterr()

        assert cli.main(["--check", "--golden-dir", golden_dir]) == 0
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines() if line.startswith("ok")] == names
        assert "checked 2 scenarios" in out

        tampered = tmp_path / "uniform.json"
        document = json.loads(tampered.read_text())
        document["cluster"]["objects_served"] += 1
        tampered.write_text(json.dumps(document))
        assert cli.main(["--check", "--golden-dir", golden_dir]) == 1
        captured = capsys.readouterr()
        assert "FAIL uniform" in captured.err and "FAIL fleet-uniform" not in captured.err
        assert "cluster.objects_served" in captured.err

        assert cli.main(["--run-all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == names
        assert all(line.startswith("ok") and re.search(r"sha256=[0-9a-f]{64}$", line) for line in lines)
