"""Elastic fleet membership: epochs, migration plans, rebalancing scenarios.

Pins the acceptance criteria of the elastic-fleet work: a mid-run join loses
zero objects, moves at most 2·K/N of K keys, and strictly lowers the
post-join imbalance coefficient; a graceful leave hands its queue off and
re-homes its replicas; heterogeneous device profiles reach the devices; and
sessions survive membership changes without noticing them.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.csd.device import BusyInterval, DeviceConfig
from repro.csd.disk_group import DiskGroupLayout
from repro.csd.layout import ClientsPerGroupLayout, extend_layout_with_keys
from repro.exceptions import (
    FleetError, LayoutError, ScenarioError, SimulationError, StorageError,
)
from repro.fleet.controller import FleetController
from repro.fleet.membership import FleetMember, FleetMembership, resolve_device_config
from repro.fleet.migration import plan_migration
from repro.fleet.router import FleetRouter
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    RebalancePolicy,
    SetReplication,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.scenarios.runner import ScenarioRunner, build_layout
from repro.obs import Ewma
from repro.service import StorageService
from repro.workloads import tpch

RUNNER = ScenarioRunner()

_KINDS = ("switch", "transfer", "migration")


def _window_scan(log, start, end):
    """Reference: busy seconds inside ``[start, end]`` from a scan of the
    whole log, positive overlaps added in log order."""
    total = 0.0
    for interval in log:
        low, high = interval.start, interval.end
        overlap = (high if high < end else end) - (low if low > start else start)
        if overlap > 0.0:
            total += overlap
    return total


@pytest.fixture(scope="module")
def elastic_reports():
    """Each elastic scenario run once for the whole module."""
    names = ["fleet-elastic-drain", "fleet-rebalance-under-load"]
    return {name: RUNNER.run(get_scenario(name)) for name in names}


class TestMembershipModel:
    def test_epoch_advances_once_per_change(self):
        spec = FleetSpec(
            devices=3,
            replication=2,
            events=(DeviceJoin(3, 10.0), DeviceLeave(0, 20.0)),
        )
        membership = FleetMembership(spec, DeviceConfig())
        assert membership.epoch == 0
        membership.join(DeviceJoin(3, 10.0), 10.0)
        assert membership.epoch == 1
        assert membership.serving_ids() == ("csd0", "csd1", "csd2", "csd3")
        membership.leave("csd0", 20.0)
        assert membership.epoch == 2
        assert membership.serving_ids() == ("csd1", "csd2", "csd3")
        membership.fail("csd1", 30.0)
        assert membership.epoch == 3
        assert membership.serving_ids() == ("csd2", "csd3")
        kinds = [record.kind for record in membership.epoch_log]
        assert kinds == ["join", "leave", "failure"]
        assert [record.epoch for record in membership.epoch_log] == [1, 2, 3]

    def test_membership_changes_cannot_go_back_in_time(self):
        spec = FleetSpec(devices=3, replication=2, events=(DeviceJoin(3, 50.0),))
        membership = FleetMembership(spec, DeviceConfig())
        membership.join(DeviceJoin(3, 50.0), 50.0)
        with pytest.raises(FleetError, match="precedes"):
            membership.leave("csd0", 10.0)

    def test_double_leave_and_unknown_member_rejected(self):
        membership = FleetMembership(FleetSpec(devices=2, replication=1), DeviceConfig())
        membership.leave("csd0", 5.0)
        with pytest.raises(FleetError, match="not serving"):
            membership.leave("csd0", 6.0)
        with pytest.raises(FleetError, match="unknown"):
            membership.leave("csd9", 7.0)

    def test_profiles_resolve_into_per_device_configs(self):
        """Initial devices and joiners take their config the one way: from
        the profile of their index, else the base config."""
        base = DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=9.6)
        spec = FleetSpec(
            devices=2,
            replication=1,
            events=(DeviceJoin(2, 30.0), DeviceJoin(3, 40.0)),
            profiles=(
                DeviceProfile(device=1, switch_seconds=40.0),
                DeviceProfile(device=2, transfer_seconds=4.8),
            ),
        )
        assert spec.heterogeneous
        membership = FleetMembership(spec, base)
        assert membership.member("csd0").config == base
        assert membership.member("csd1").config.group_switch_seconds == 40.0
        assert membership.member("csd1").config.transfer_seconds_per_object == 9.6
        joined = membership.join(DeviceJoin(2, 30.0), 30.0)
        assert joined.config.transfer_seconds_per_object == 4.8
        assert joined.config.group_switch_seconds == 10.0
        assert membership.join(DeviceJoin(3, 40.0), 40.0).config is base

    @given(
        intervals=st.lists(
            st.tuples(st.integers(-20, 120), st.integers(0, 30), st.sampled_from(_KINDS)),
            max_size=40,
        ),
        serialized=st.booleans(),
        boundaries=st.lists(st.integers(0, 400), min_size=1, max_size=8),
    )
    def test_busy_per_window_is_the_per_window_scan(self, intervals, serialized, boundaries):
        """One pass over the log fills every epoch window with the same
        floats as one whole-log scan per window.  Windows are contiguous
        (repeated boundaries make zero-length ones) and the log is either
        serialized, like a device's, or any overlapping, unordered list;
        on a tenths grid intervals straddle boundaries and touch them."""
        log = []
        clock = -20
        for offset, length, kind in intervals:
            # Serialized: each entry starts 0-7 tenths after the last ends.
            start = clock + max(offset, 0) % 8 if serialized else offset
            log.append(BusyInterval(start / 10.0, (start + length) / 10.0, kind, 0))
            clock = start + length
        edges = sorted(edge / 10.0 for edge in boundaries)
        windows = list(zip([0.0] + edges, edges))
        member = FleetMember(
            "csd0", 0, DeviceConfig(), Ewma(0.3), device=SimpleNamespace(busy_intervals=log)
        )
        assert member.busy_per_window(windows) == [
            _window_scan(log, start, end) for start, end in windows
        ]
        assert FleetMember("csd1", 1, DeviceConfig(), Ewma(0.3)).busy_per_window(windows) == [
            0.0
        ] * len(windows)

    def test_resolve_device_config_keeps_base_when_no_overrides(self):
        base = DeviceConfig()
        assert resolve_device_config(base) is base
        derived = resolve_device_config(base, switch_seconds=1.0)
        assert derived.group_switch_seconds == 1.0
        assert derived.transfer_seconds_per_object == base.transfer_seconds_per_object


class TestMigrationPlanner:
    def test_only_changed_keys_move(self):
        old = {"a/t.0": ("csd0",), "a/t.1": ("csd1",), "a/t.2": ("csd0",)}
        new = {"a/t.0": ("csd0",), "a/t.1": ("csd2",), "a/t.2": ("csd0",)}
        plan = plan_migration(
            1, 10.0, "join", "csd2", old, new, {}, {}, ["a/t.1"],
            devices_before=2, devices_after=3, replication=1,
        )
        assert plan.keys_moved == 1
        assert plan.objects_migrated == 1
        assert plan.moves[0].object_key == "a/t.1"
        assert plan.moves[0].source == "csd1"
        assert plan.moves[0].dest == "csd2"

    def test_dead_sources_are_skipped(self):
        old = {"a/t.0": ("csd0", "csd1")}
        new = {"a/t.0": ("csd1", "csd2")}
        plan = plan_migration(
            1, 0.0, "leave", "csd0", old, new, {"csd0": False, "csd1": True}, {}, ["a/t.0"],
            devices_before=3, devices_after=2, replication=2,
        )
        assert plan.moves[0].source == "csd1"

    def test_migration_bound_caps_at_full_reshuffle(self):
        plan = plan_migration(
            1, 0.0, "join", "csd2", {}, {}, {}, {}, [],
            devices_before=2, devices_after=3, replication=3,
        )
        plan.total_keys = 10
        plan.devices_before = 2
        plan.devices_after = 3
        assert plan.migration_bound() == 10  # min(K, ceil(2*3*10/2)) == K

    @pytest.mark.parametrize(
        "kind, bound", [("join", 25), ("set-replication", 100), ("reweight", 100)]
    )
    def test_full_sweep_kinds_are_bounded_by_every_key(self, kind, bound):
        """A join moves ~R·K/N keys; raising R or reweighting moves them all:
        8 devices, R = 1, K = 100 bound a join by ceil(2·1·100/8) = 25 and
        the two full sweeps by K."""
        plan = plan_migration(
            1, 0.0, kind, "csd8", {}, {}, {}, {}, [],
            devices_before=8, devices_after=9 if kind == "join" else 8, replication=1,
        )
        plan.total_keys = 100
        plan.devices_before = 8
        plan.devices_after = 9 if kind == "join" else 8
        assert plan.migration_bound() == bound


class TestSpecValidation:
    def test_join_must_use_fresh_index(self):
        with pytest.raises(ScenarioError, match="fresh indexes"):
            FleetSpec(devices=3, events=(DeviceJoin(1, 10.0),))

    def test_leave_of_unknown_joiner_rejected(self):
        with pytest.raises(ScenarioError, match="never joins"):
            FleetSpec(devices=2, events=(DeviceLeave(5, 10.0),))

    def test_leave_before_join_rejected(self):
        with pytest.raises(ScenarioError, match="join strictly before"):
            FleetSpec(
                devices=2,
                events=(DeviceJoin(2, 20.0), DeviceLeave(2, 10.0)),
            )

    def test_fleet_cannot_shrink_below_replication(self):
        with pytest.raises(ScenarioError, match="below the replication factor"):
            FleetSpec(devices=2, replication=2, events=(DeviceLeave(0, 10.0),))

    def test_leave_and_failure_are_mutually_exclusive(self):
        with pytest.raises(ScenarioError, match="fails and leaves"):
            FleetSpec(
                devices=3,
                replication=2,
                failures=(DeviceFailure(0, 5.0),),
                events=(DeviceLeave(0, 10.0),),
            )

    @pytest.mark.parametrize(
        "what, fleet",
        [
            ("fail", {"failures": (DeviceFailure(0, 5.0), DeviceFailure(0, 9.0))}),
            ("join", {"events": (DeviceJoin(3, 5.0), DeviceJoin(3, 9.0))}),
            ("leave", {"events": (DeviceLeave(0, 5.0), DeviceLeave(0, 9.0))}),
            (
                "carry a profile",
                {
                    "profiles": (
                        DeviceProfile(0, switch_seconds=1.0),
                        DeviceProfile(0, transfer_seconds=1.0),
                    )
                },
            ),
        ],
    )
    def test_each_device_changes_at_most_once(self, what, fleet):
        with pytest.raises(ScenarioError, match=f"each device may {what} at most once"):
            FleetSpec(devices=3, replication=2, **fleet)

    def test_profiles_checked_against_roster(self):
        with pytest.raises(ScenarioError, match="unknown device"):
            FleetSpec(devices=2, profiles=(DeviceProfile(device=7, switch_seconds=1.0),))
        with pytest.raises(ScenarioError, match="overrides nothing"):
            DeviceProfile(device=0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DeviceJoin(device=3, at_seconds="5"),
            lambda: FleetSpec(devices="2"),
            lambda: FleetSpec(devices=2, replication="2"),
            lambda: DeviceFailure(device=1, at_seconds=None),
            lambda: DeviceLeave(device="x", at_seconds=1.0),
            lambda: MigrationThrottle(objects_per_second="2"),
            lambda: FleetSpec(devices=True),
            lambda: DeviceProfile(device=1.0, switch_seconds=2.0),
            lambda: SetReplication(replication=2.0, at_seconds=1.0),
            lambda: RebalancePolicy(interval_seconds="60"),
        ],
        ids=[
            "join-time-str",
            "devices-str",
            "replication-str",
            "failure-time-none",
            "leave-device-str",
            "throttle-rate-str",
            "devices-bool",
            "profile-device-float",
            "replication-float",
            "rebalance-interval-str",
        ],
    )
    def test_wrongly_typed_fields_are_scenario_errors(self, build):
        """Each of these used to escape as a bare ``TypeError`` (or, for a
        bool or a whole float, pass as a number)."""
        with pytest.raises(ScenarioError):
            build()

    def test_spec_dict_roundtrips_events_and_profiles(self):
        spec = FleetSpec(
            devices=3,
            replication=2,
            events=(DeviceJoin(3, 10.0), DeviceLeave(0, 20.0)),
            profiles=(DeviceProfile(device=1, switch_seconds=40.0),),
        )
        description = spec.to_dict()
        # A join reports no latencies of its own: a profile gives them.
        assert description["events"][0] == {
            "kind": "join",
            "device": 3,
            "at_seconds": 10.0,
            "switch_seconds": None,
            "transfer_seconds": None,
        }
        assert description["events"][1]["kind"] == "leave"
        assert description["profiles"] == [
            {"device": 1, "switch_seconds": 40.0, "transfer_seconds": None}
        ]


class TestRebalanceUnderLoad:
    """The acceptance pins for the headline scenario."""

    def test_zero_objects_lost_across_the_join(self, elastic_reports):
        report = elastic_reports["fleet-rebalance-under-load"]
        assert report.fleet["lost_objects"] == 0
        assert "fleet-rebalance" in report.invariants_checked
        issued = sum(client.requests for client in report.clients.values())
        assert report.objects_served == issued > 0

    def test_join_moves_at_most_two_k_over_n_keys(self, elastic_reports):
        report = elastic_reports["fleet-rebalance-under-load"]
        plan = report.rebalance["plans"][0]
        total_keys = report.rebalance["naive_reshuffle_keys"]
        devices_before = plan["devices_before"]
        assert plan["kind"] == "join"
        assert 0 < plan["keys_moved"] <= 2 * total_keys / devices_before
        assert plan["keys_moved"] < total_keys  # strictly better than naive

    def test_join_strictly_lowers_the_imbalance_coefficient(self, elastic_reports):
        report = elastic_reports["fleet-rebalance-under-load"]
        series = report.rebalance["per_epoch_imbalance"]
        assert [entry["epoch"] for entry in series] == [0, 1]
        assert (
            series[1]["imbalance_coefficient"] < series[0]["imbalance_coefficient"]
        )

    def test_epoch_monotonicity_recorded(self, elastic_reports):
        report = elastic_reports["fleet-rebalance-under-load"]
        assert report.rebalance["epoch"] == 1
        events = report.rebalance["events"]
        assert [event["epoch"] for event in events] == [1]
        assert events[0]["kind"] == "join"


class TestElasticJoin:
    def test_joiner_absorbs_keys_and_serves_traffic(self, elastic_reports):
        report = elastic_reports["fleet-rebalance-under-load"]
        joiner = report.fleet["per_device"]["csd3"]
        assert joiner["objects_placed"] > 0
        assert joiner["objects_served"] > 0
        assert report.rebalance["keys_moved_total"] > 0
        assert report.rebalance["bytes_migrated_total"] > 0

    def test_migration_interference_is_measured(self, elastic_reports):
        report = elastic_reports["fleet-rebalance-under-load"]
        assert report.rebalance["migration_seconds_total"] > 0
        # The join lands mid-burst, so some migration I/O necessarily ran
        # while foreground requests were waiting.
        assert (
            0
            < report.rebalance["interference_seconds_total"]
            <= report.rebalance["migration_seconds_total"]
        )


class TestElasticDrain:
    def test_leaver_hands_off_and_goes_quiet(self):
        service = StorageService(get_scenario("fleet-elastic-drain"))
        service.run()
        fleet = service.fleet
        leaver = fleet.members[0]
        assert leaver.left_at == 50.0 and not leaver.alive
        assert fleet.stats.handed_off > 0
        assert fleet.pending_total() == 0
        after_leave = [
            interval
            for interval in leaver.device.busy_intervals
            if interval.start > leaver.left_at
        ]
        assert all(interval.kind == "migration" for interval in after_leave)

    def test_leavers_keys_are_rehomed_to_live_devices(self):
        service = StorageService(get_scenario("fleet-elastic-drain"))
        service.run()
        fleet = service.fleet
        for object_key, replicas in fleet.placement.items():
            assert "csd0" not in replicas
            for device_id in replicas:
                member = fleet.membership.by_id[device_id]
                assert member.device.layout.has_object(object_key)
        assert service.fleet_epoch() == 1


class TestHeterogeneousFleet:
    def test_profiles_reach_the_devices(self):
        service = StorageService(get_scenario("fleet-heterogeneous"))
        configs = {
            member.device_id: member.device.config for member in service.fleet.members
        }
        assert configs["csd1"].group_switch_seconds == 40.0
        assert configs["csd1"].transfer_seconds_per_object == 19.2
        assert configs["csd2"].group_switch_seconds == 5.0
        assert configs["csd0"].group_switch_seconds == 10.0

    def test_least_loaded_routing_steers_around_the_straggler(self):
        report = RUNNER.run(get_scenario("fleet-heterogeneous"))
        per_device = report.fleet["per_device"]
        # The straggler transfers at 2x the time of the baseline device and
        # 4x the fast one; least-loaded routing gives it the fewest objects.
        assert (
            per_device["csd1"]["objects_served"]
            < per_device["csd2"]["objects_served"]
        )


class TestMultiEpochSequences:
    def test_replica_sets_may_return_to_a_former_owner(self):
        """A device that joins and later leaves bounces keys back to their
        old owners; the re-adopted replicas are still resident (layouts are
        append-only) so the reverse plan costs no migration I/O."""
        spec = ScenarioSpec(
            name="join-then-leave",
            description="x",
            tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8, repetitions=2),
            fleet=FleetSpec(
                devices=3,
                replication=2,
                events=(DeviceJoin(3, 30.0), DeviceLeave(3, 90.0)),
            ),
            seed=42,
        )
        report = RUNNER.run(spec)
        assert report.rebalance["epoch"] == 2
        join_plan, leave_plan = report.rebalance["plans"]
        assert join_plan["keys_moved"] > 0
        # Every key the leaver held bounces back to a device that already
        # stores it: zero copies, zero bytes.
        assert leave_plan["keys_moved"] == 0
        assert leave_plan["bytes_migrated"] == 0
        assert report.fleet["lost_objects"] == 0

    def test_leave_after_failure_never_reads_from_the_dead_device(self):
        """A key whose replicas were exactly {failed device, leaver} must be
        sourced from the leaver (which still holds the data), never from the
        fail-stopped device — a dead device performs no I/O, ever.  Repair is
        disabled so the loss is still unhealed when the leave fires (with
        repair on, the failure epoch would re-replicate immediately and the
        leave would always find a live source)."""
        spec = ScenarioSpec(
            name="leave-after-failure",
            description="x",
            tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
            fleet=FleetSpec(
                devices=4,
                replication=2,
                failures=(DeviceFailure(device=1, at_seconds=30.0),),
                events=(DeviceLeave(device=0, at_seconds=60.0),),
                repair=False,
            ),
            seed=42,
        )
        report = RUNNER.run(spec)  # invariant checker would reject dead-device I/O
        assert {"fleet-failover", "fleet-rebalance"} <= set(report.invariants_checked)
        assert report.fleet["lost_objects"] == 0
        plans = report.rebalance["plans"]
        assert plans and plans[0]["kind"] == "leave"

    def test_transient_under_replication_rejected_at_spec_time(self):
        with pytest.raises(ScenarioError, match="timeline drops the fleet"):
            FleetSpec(
                devices=2,
                replication=2,
                events=(DeviceLeave(0, 10.0), DeviceJoin(2, 200.0)),
            )
        # The same counts in a safe order (grow before shrinking) validate.
        FleetSpec(
            devices=2,
            replication=2,
            events=(DeviceJoin(2, 10.0), DeviceLeave(0, 200.0)),
        )

    def test_membership_process_crashes_surface_their_root_cause(self):
        spec = ScenarioSpec(
            name="crashing-join",
            description="x",
            tenants=uniform_tenants(2, "tpch:q12", cache_capacity=8),
            fleet=FleetSpec(devices=2, replication=1, events=(DeviceJoin(2, 20.0),)),
            seed=42,
        )
        service = StorageService(spec)

        def explode(_event):
            raise RuntimeError("injected membership crash")

        service.controller._apply_join = explode
        # The join process has no waiter: its crash ends the run at once.
        with pytest.raises(RuntimeError, match="injected membership crash"):
            service.run()
        assert service.env.now == 20.0

    def test_a_repair_crash_that_starves_the_sessions_under_a_rebalancer_raises(
        self, monkeypatch
    ):
        """The failure process drains the dead device's queue, then dies in
        its repair epoch before it re-submits the drained requests: the
        sessions wait for good, and the rebalancer's ticks keep the queue
        from ever running dry.  The crash itself ends the run."""
        spec = ScenarioSpec(
            name="crashing-repair",
            description="x",
            tenants=uniform_tenants(2, "tpch:q12", cache_capacity=8),
            fleet=FleetSpec(
                devices=3,
                replication=2,
                repair=True,
                failures=(DeviceFailure(0, 20.0),),
                rebalance=RebalancePolicy(interval_seconds=30.0),
            ),
            seed=42,
        )
        rebalance = FleetController._rebalance

        def explode(self, kind, device_id, reason="rebalance"):
            if kind == "repair":
                raise RuntimeError("injected repair crash")
            rebalance(self, kind, device_id, reason)

        monkeypatch.setattr(FleetController, "_rebalance", explode)
        service = StorageService(spec)
        with pytest.raises(RuntimeError, match="injected repair crash"):
            service.run()
        assert service.env.now == 20.0
        assert service.fleet.stats.failed_over > 0

    def test_a_request_lost_without_an_error_under_a_rebalancer_raises(self, monkeypatch):
        """The failure drains the dead device's queue and drops what it
        drained, with no exception: the sessions wait for good, and a tick
        that wakes to nothing else scheduled ends the run, naming them."""
        spec = ScenarioSpec(
            name="lossy-drain",
            description="x",
            tenants=uniform_tenants(2, "tpch:q12", cache_capacity=8),
            fleet=FleetSpec(
                devices=3,
                replication=2,
                repair=True,
                failures=(DeviceFailure(0, 20.0),),
                rebalance=RebalancePolicy(interval_seconds=30.0),
            ),
            seed=42,
        )
        drain_pending = FleetRouter.drain_pending

        def drop(self, member):
            drain_pending(self, member)
            return []

        monkeypatch.setattr(FleetRouter, "drain_pending", drop)
        service = StorageService(spec)
        with pytest.raises(
            SimulationError,
            match=r"nothing but the fleet rebalancer is left to run at t = 150.0; "
            r"the sessions that can never finish: \['session:tenant1'\]$",
        ):
            service.run()
        # The fifth tick, not hundreds of millions of simulated seconds on.
        assert service.env.now == 150.0
        # tenant0 lost nothing: it finished, so it is not named.
        assert [session.process.triggered for session in service.sessions] == [True, False]


class TestSessionsSurviveMembershipChanges:
    def test_back_to_back_queries_straddle_a_join(self):
        spec = get_scenario("fleet-rebalance-under-load")
        join_at = spec.fleet.events[0].at_seconds
        service = StorageService(spec)
        session = service.open_session("tenant0")
        handles = [session.submit(tpch.q12()) for _ in range(4)]
        service.run()
        assert all(handle.done for handle in handles)
        assert service.fleet_epoch() == 1
        assert handles[0].finished_at < join_at < handles[-1].started_at
        # The session never reconnected: same session object served every
        # query across the epoch boundary.
        assert all(result.execution_time > 0 for result in session.results)


class TestLayoutExtension:
    def test_tenant_colocated_layout_packs_one_group_per_tenant(self):
        spec = get_scenario("fleet-elastic-drain")
        assert spec.layout == "tenant-colocated"
        policy = build_layout(spec)
        assert isinstance(policy, ClientsPerGroupLayout) and policy.clients_per_group == 1
        layout = policy.build({"a": ["a/t.0", "a/t.1"], "b": ["b/t.0"]})
        assert layout.group_of("a/t.0") == layout.group_of("a/t.1") == 0
        assert layout.group_of("b/t.0") == 1

    def test_extend_layout_coalesces_with_existing_tenant_group(self):
        layout = ClientsPerGroupLayout(1).build({"a": ["a/t.0"], "b": ["b/t.0"]})
        groups = extend_layout_with_keys(layout, ["a/t.1", "c/t.0", "c/t.1"])
        assert groups == [0, 2, 2]
        assert layout.group_of("a/t.1") == layout.group_of("a/t.0")
        assert layout.tenant_group_map()["c"] == 2

    def test_layout_is_append_only(self):
        layout = DiskGroupLayout({"a/t.0": 0}, {"a": 0})
        layout.add_objects(["a/t.1"], [0])
        with pytest.raises(LayoutError, match="already placed"):
            layout.add_objects(["a/t.1"], [1])
        with pytest.raises(LayoutError, match="negative"):
            layout.add_objects(["a/t.2"], [-1])
        with pytest.raises(LayoutError, match="listed twice"):
            layout.add_objects(["a/t.2", "a/t.2"], [0, 0])

    @pytest.mark.parametrize(
        "keys, pattern",
        [
            (["b/t.1", "b/t.2", "a/t.0"], "'a/t.0' is already placed"),
            (["b/t.1", "c/t.0", "b/t.1"], "'b/t.1' is listed twice"),
        ],
        ids=["already-placed", "duplicated"],
    )
    def test_a_rejected_extension_changes_nothing(self, keys, pattern):
        """All or nothing: the keys before the offending one are not placed,
        and neither ``max_group_id`` nor the tenant map moves."""
        layout = DiskGroupLayout({"a/t.0": 0}, {"a": 0})
        tenants = layout.tenant_group_map()
        with pytest.raises(LayoutError, match=pattern):
            extend_layout_with_keys(layout, keys)
        assert list(layout.placed_keys) == ["a/t.0"]
        assert layout.max_group_id == 0
        assert layout.tenant_group_map() == tenants == {"a": 0}

    def test_a_negative_group_or_malformed_key_changes_nothing(self):
        layout = DiskGroupLayout({"a/t.0": 0}, {"a": 0})
        layout.tenant_group_map()
        with pytest.raises(LayoutError, match="negative group -1"):
            layout.add_objects(["b/t.0", "c/t.0"], [3, -1])
        with pytest.raises(StorageError, match="malformed object key"):
            extend_layout_with_keys(layout, ["b/t.0", "bare"])
        assert list(layout.placed_keys) == ["a/t.0"]
        assert (layout.max_group_id, layout.tenant_group_map()) == (0, {"a": 0})
