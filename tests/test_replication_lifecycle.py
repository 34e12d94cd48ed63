"""Replication lifecycle: R-change events, read-repair, throttled rebalance.

Pins the acceptance criteria of the replication-lifecycle work: raising R
mid-run re-replicates every key as charged write-path I/O, lowering R trims
without ever dropping a key's last replica, a fail-stop loss with repair
enabled returns every surviving key to R live replicas, and a throttled
rebalance interferes strictly less with foreground traffic than the same
join at strict priority.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.csd.device import MigrationTokenBucket
from repro.exceptions import FleetError, ScenarioError
from repro.fleet.membership import FleetMembership
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    FleetSpec,
    MigrationThrottle,
    SetReplication,
)
from repro.csd.device import DeviceConfig
from repro.scenarios.golden import load_golden
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService

RUNNER = ScenarioRunner()


@pytest.fixture(scope="module")
def lifecycle_reports():
    """Each replication-lifecycle scenario run once for the whole module."""
    names = [
        "fleet-replication-upgrade",
        "fleet-repair-after-loss",
        "fleet-throttled-rebalance",
    ]
    return {name: RUNNER.run(get_scenario(name)) for name in names}


def tiny_fleet_spec(name, fleet, repetitions=1, tenants=4):
    return ScenarioSpec(
        name=name,
        description="x",
        tenants=uniform_tenants(
            tenants, "tpch:q12", cache_capacity=8, repetitions=repetitions
        ),
        fleet=fleet,
        seed=42,
    )


class TestSetReplicationValidation:
    def test_replication_factor_bounds(self):
        with pytest.raises(ScenarioError, match=">= 1"):
            SetReplication(replication=0, at_seconds=10.0)
        with pytest.raises(ScenarioError, match="finite"):
            SetReplication(replication=2, at_seconds=float("nan"))

    def test_no_op_change_rejected(self):
        with pytest.raises(ScenarioError, match="already"):
            FleetSpec(devices=3, replication=2, events=(SetReplication(2, 10.0),))

    def test_raise_above_serving_rejected(self):
        with pytest.raises(ScenarioError, match="exceeds"):
            FleetSpec(devices=3, replication=1, events=(SetReplication(4, 10.0),))
        # A leave shrinking the roster first makes the same R unreachable.
        with pytest.raises(ScenarioError, match="exceeds"):
            FleetSpec(
                devices=3,
                replication=1,
                events=(DeviceLeave(0, 5.0), SetReplication(3, 10.0)),
            )

    def test_failures_checked_against_replication_in_effect(self):
        # R starts at 1 (no failures allowed) but is raised to 2 before the
        # failure fires — the timeline walk accepts what the old static
        # check (frozen initial R) would have rejected.
        FleetSpec(
            devices=3,
            replication=1,
            events=(SetReplication(2, 10.0),),
            failures=(DeviceFailure(0, 50.0),),
        )
        # And the reverse: lowering R to 1 before the failure is rejected.
        with pytest.raises(ScenarioError, match="replication >= 2"):
            FleetSpec(
                devices=3,
                replication=2,
                events=(SetReplication(1, 10.0),),
                failures=(DeviceFailure(0, 50.0),),
            )

    def test_events_dict_roundtrip(self):
        spec = FleetSpec(devices=3, replication=1, events=(SetReplication(2, 80.0),))
        assert spec.to_dict()["events"] == [
            {"kind": "set-replication", "replication": 2, "at_seconds": 80.0}
        ]
        assert spec.replication_changes == (SetReplication(2, 80.0),)
        assert spec.to_dict()["repair"] is True
        assert spec.to_dict()["throttle"] is None


class TestMembershipReplication:
    def test_set_replication_advances_epoch(self):
        membership = FleetMembership(FleetSpec(devices=3, replication=1), DeviceConfig())
        assert membership.replication == 1
        record = membership.set_replication(2, 30.0)
        assert membership.epoch == 1 and membership.replication == 2
        assert record.kind == "set-replication"
        assert record.to_dict()["replication"] == 2
        assert record.devices_before == record.devices_after == 3

    def test_set_replication_rejects_bad_factors(self):
        membership = FleetMembership(FleetSpec(devices=2, replication=1), DeviceConfig())
        with pytest.raises(FleetError, match="already"):
            membership.set_replication(1, 10.0)
        with pytest.raises(FleetError, match="only 2 device"):
            membership.set_replication(3, 10.0)
        with pytest.raises(FleetError, match=">= 1"):
            membership.set_replication(0, 10.0)

    def test_epoch_records_carry_replication_in_effect(self):
        spec = FleetSpec(devices=2, replication=1, events=(DeviceJoin(2, 5.0),))
        membership = FleetMembership(spec, DeviceConfig())
        membership.join(DeviceJoin(2, 5.0), 5.0)
        membership.set_replication(2, 10.0)
        membership.leave("csd0", 20.0)
        assert [record.replication for record in membership.epoch_log] == [1, 2, 2]


class TestReplicationUpgrade:
    """The R 1→2 under load acceptance pins."""

    def test_every_key_gains_a_live_replica(self, lifecycle_reports):
        report = lifecycle_reports["fleet-replication-upgrade"]
        replication = report.replication
        assert replication["initial_replication"] == 1
        assert replication["replication"] == 2
        assert replication["under_replicated_keys"] == 0
        assert "replication-repair" in report.invariants_checked
        plan = report.rebalance["plans"][0]
        assert plan["kind"] == "set-replication"
        # Raising R by one gives every key exactly one new replica: the one
        # legitimate full sweep (keys_moved == K == the naive reshuffle).
        assert plan["keys_moved"] == plan["objects_migrated"]
        assert plan["keys_moved"] == report.rebalance["naive_reshuffle_keys"]
        assert replication["replicate_objects"] == plan["objects_migrated"] > 0
        assert replication["replicate_seconds"] > 0

    def test_upgrade_epoch_recorded(self, lifecycle_reports):
        report = lifecycle_reports["fleet-replication-upgrade"]
        changes = report.replication["changes"]
        assert len(changes) == 1
        assert changes[0]["kind"] == "set-replication"
        assert changes[0]["replication"] == 2
        per_epoch = report.replication["per_epoch"]
        assert per_epoch[0]["under_replicated_at_open"] > 0
        assert per_epoch[0]["under_replicated_after_plan"] == 0

    def test_final_placement_holds_two_live_replicas(self):
        service = StorageService(get_scenario("fleet-replication-upgrade"))
        service.run()
        fleet = service.fleet
        assert service.controller.effective_replication == 2
        for object_key, replicas in fleet.placement.items():
            assert len(set(replicas)) == 2
            for device_id in replicas:
                member = fleet.membership.by_id[device_id]
                assert member.alive
                assert member.device.layout.has_object(object_key)


class TestReplicationDowngrade:
    def test_lowering_r_trims_without_io(self):
        spec = tiny_fleet_spec(
            "r-downgrade",
            FleetSpec(
                devices=4,
                replication=2,
                events=(SetReplication(1, 60.0),),
            ),
        )
        report = RUNNER.run(spec)
        plan = report.rebalance["plans"][0]
        assert plan["kind"] == "set-replication"
        assert plan["objects_migrated"] == 0  # trims are pure bookkeeping
        assert plan["bytes_migrated"] == 0
        assert plan["replicas_trimmed"] == plan["keys_trimmed"] > 0
        assert report.replication["replicas_trimmed_total"] == plan["replicas_trimmed"]
        assert report.replication["replication"] == 1
        assert report.replication["under_replicated_keys"] == 0
        assert "replication-repair" in report.invariants_checked

    def test_trims_never_drop_the_last_replica(self):
        spec = tiny_fleet_spec(
            "r-down-up",
            FleetSpec(
                devices=3,
                replication=2,
                events=(SetReplication(1, 40.0), SetReplication(2, 90.0)),
            ),
            repetitions=2,
        )
        service = StorageService(spec)
        service.run()
        for plan in service.controller.migration_plans:
            for trim in plan.trims:
                assert trim.survivors >= 1
        assert service.controller.effective_replication == 2
        assert service.membership.epoch == 2


class TestReadRepair:
    def test_repair_restores_full_replication(self, lifecycle_reports):
        report = lifecycle_reports["fleet-repair-after-loss"]
        replication = report.replication
        assert replication["repair_enabled"] is True
        assert replication["under_replicated_keys"] == 0
        assert replication["repair_objects"] > 0
        assert replication["repair_seconds"] > 0
        per_epoch = replication["per_epoch"]
        assert per_epoch[0]["kind"] == "repair"
        assert per_epoch[0]["under_replicated_at_open"] > 0
        assert per_epoch[0]["under_replicated_after_plan"] == 0
        assert "replication-repair" in report.invariants_checked
        assert "fleet-failover" in report.invariants_checked

    def test_repair_sources_are_survivors_only(self):
        service = StorageService(get_scenario("fleet-repair-after-loss"))
        service.run()
        fleet = service.fleet
        dead = fleet.members[0]
        assert dead.failed_at is not None
        # The dead device performed no I/O after failing — repair reads are
        # charged to the surviving replica holders.
        for interval in dead.device.busy_intervals:
            assert interval.start <= dead.failed_at
        plan = service.controller.migration_plans[0]
        assert plan.kind == "repair"
        for move in plan.moves:
            assert move.source != dead.device_id
            assert move.dest != dead.device_id
        # Every key now holds R live replicas on the survivors.
        for object_key, replicas in fleet.placement.items():
            assert dead.device_id not in replicas
            assert len(replicas) == 2

    def test_unrepaired_loss_after_r_change_is_not_a_false_violation(self):
        """Regression: an earlier set-replication plan must not make the
        replication-repair invariant demand full replication of an end state
        that a later repair-disabled failure legitimately degraded."""
        spec = tiny_fleet_spec(
            "r-up-then-unrepaired-loss",
            FleetSpec(
                devices=4,
                replication=2,
                repair=False,
                events=(SetReplication(replication=3, at_seconds=50.0),),
                failures=(DeviceFailure(device=0, at_seconds=200.0),),
            ),
            repetitions=2,
        )
        report = RUNNER.run(spec)  # pre-fix: InvariantViolation at run end
        assert report.fleet["lost_objects"] == 0
        assert report.replication["under_replicated_keys"] > 0

    def test_repair_disabled_pins_the_degraded_baseline(self):
        report = RUNNER.run(get_scenario("fleet-device-loss"))
        assert report.replication["repair_enabled"] is False
        assert report.replication["under_replicated_keys"] > 0
        assert report.replication["repair_objects"] == 0
        assert report.rebalance["plans"] == []
        assert "replication-repair" not in report.invariants_checked
        per_epoch = report.replication["per_epoch"]
        assert per_epoch[0]["kind"] == "failure"
        assert per_epoch[0]["under_replicated_after_plan"] > 0

    def test_repair_survives_more_failures_than_r_minus_one(self):
        """With repair, well-spaced losses beyond the old R-1 lifetime cap
        are survivable: each failure is re-replicated before the next."""
        spec = tiny_fleet_spec(
            "serial-failures",
            FleetSpec(
                devices=4,
                replication=2,
                replica_policy="least-loaded",
                failures=(
                    DeviceFailure(device=0, at_seconds=40.0),
                    DeviceFailure(device=1, at_seconds=90.0),
                ),
            ),
            repetitions=2,
        )
        report = RUNNER.run(spec)  # invariants: failover + replication-repair
        assert report.fleet["lost_objects"] == 0
        assert report.replication["under_replicated_keys"] == 0
        kinds = [plan["kind"] for plan in report.rebalance["plans"]]
        assert kinds == ["repair", "repair"]
        assert {"fleet-failover", "replication-repair"} <= set(
            report.invariants_checked
        )

    def test_repair_degrades_gracefully_when_survivors_below_r(self):
        # Two devices at R=2 losing one: repair can only sustain a single
        # replica, so the plan is empty (the survivor already holds all keys)
        # and the effective factor drops to 1.
        spec = tiny_fleet_spec(
            "repair-degraded",
            FleetSpec(
                devices=2,
                replication=2,
                failures=(DeviceFailure(device=1, at_seconds=30.0),),
            ),
            tenants=2,
        )
        report = RUNNER.run(spec)
        assert report.replication["effective_replication"] == 1
        assert report.replication["under_replicated_keys"] == 0
        plan = report.rebalance["plans"][0]
        assert plan["kind"] == "repair"
        assert plan["objects_migrated"] == 0
        assert report.fleet["lost_objects"] == 0


class TestMigrationThrottle:
    def test_throttled_rebalance_interferes_strictly_less(self):
        """The headline pin: same join, strictly lower foreground
        interference with the token bucket than at strict priority."""
        throttled = load_golden("fleet-throttled-rebalance")
        unthrottled = load_golden("fleet-rebalance-under-load")
        assert (
            0
            < throttled["rebalance"]["interference_seconds_total"]
            < unthrottled["rebalance"]["interference_seconds_total"]
        )
        # Same join: both plans move the same keys.
        assert (
            throttled["rebalance"]["plans"][0]["keys_moved"]
            == unthrottled["rebalance"]["plans"][0]["keys_moved"]
        )

    def test_throttle_metrics_reported(self, lifecycle_reports):
        report = lifecycle_reports["fleet-throttled-rebalance"]
        throttle = report.replication["throttle"]
        assert throttle["objects_per_second"] == 0.1
        assert throttle["deferrals"] > 0
        for rate in throttle["observed_objects_per_second"].values():
            # Sustained token-to-token rate: never above the configured cap
            # (fence-post corrected, so auditors can compare directly).
            assert 0 < rate <= throttle["objects_per_second"] + 1e-9
        unthrottled = load_golden("fleet-rebalance-under-load")
        assert unthrottled["replication"]["throttle"] is None

    def test_foreground_arriving_mid_wait_is_served_before_migration(self):
        """A query landing while the device idles out a token interval wakes
        it immediately and — the bucket still being empty — runs before the
        queued migration job, as the throttle contract promises."""
        from repro.csd.device import ColdStorageDevice
        from repro.csd.disk_group import DiskGroupLayout
        from repro.csd.object_store import ObjectStore
        from repro.csd.request import GetRequest, MigrationJob
        from repro.csd.scheduler import RankBasedScheduler
        from repro.sim import Environment

        env = Environment()
        store = ObjectStore()
        key = store.put_segment("a", "t.0", object())
        device = ColdStorageDevice(
            env,
            store,
            DiskGroupLayout({key: 0}),
            RankBasedScheduler(),
            DeviceConfig(group_switch_seconds=0.0, transfer_seconds_per_object=1.0),
            migration_throttle=MigrationTokenBucket(0.1, burst=1),
        )
        device.submit_migrations([MigrationJob(key, "read", 1.0, epoch=1) for _ in range(3)])

        def client(env):
            yield env.timeout(4.0)  # mid token interval; the device is idle-waiting
            request = GetRequest(key, "a", "q1", env.event())
            device.submit_many((request,))
            yield request.completion

        env.process(client(env))
        env.run(until=60.0)
        migrations = [
            interval for interval in device.busy_intervals if interval.kind == "migration"
        ]
        transfers = [
            interval for interval in device.busy_intervals if interval.kind == "transfer"
        ]
        # Token pacing held (t=0, 10, 20) and the query ran at arrival, not
        # after the next token.
        assert [interval.start for interval in migrations] == [0.0, 10.0, 20.0]
        assert transfers[0].start == 4.0 and transfers[0].end == 5.0
        assert device.stats.migration_deferrals >= 1

    def test_token_bucket_paces_deterministically(self):
        bucket = MigrationTokenBucket(0.5, burst=2)
        assert bucket.try_consume(0.0) and bucket.try_consume(0.0)
        assert not bucket.try_consume(0.0)
        wait = bucket.seconds_until_token(0.0)
        assert wait == pytest.approx(2.0)
        # After exactly the advertised wait a token is available — float
        # drift must not leave the bucket at 1 - 1e-16 forever.
        assert bucket.try_consume(0.0 + wait)
        assert bucket.seconds_until_token(0.0 + wait) > 0
        # Accrual is capped at the burst size.
        assert bucket.seconds_until_token(1e9) == 0.0

    def test_stranded_migration_io_is_reported_not_hidden(self):
        """A throttle paced far slower than the workload leaves migration
        charges queued when the last session completes.  The data landed at
        plan time (zero loss), but the report must say how much of the I/O
        never executed instead of presenting the migration as fully done."""
        spec = tiny_fleet_spec(
            "stranded-migration",
            FleetSpec(
                devices=3,
                replication=1,
                events=(DeviceJoin(device=3, at_seconds=100.0),),
                throttle=MigrationThrottle(objects_per_second=0.001),
            ),
        )
        report = RUNNER.run(spec)
        assert report.fleet["lost_objects"] == 0
        assert report.replication["unfinished_migration_jobs"] > 0
        # The charged seconds fall short of the plan's full I/O bill by
        # exactly the stranded jobs' worth.
        plan = report.rebalance["plans"][0]
        assert report.rebalance["migration_seconds_total"] < plan["objects_migrated"] * 2 * 9.6
        # The headline throttled scenario is paced to finish everything.
        throttled = load_golden("fleet-throttled-rebalance")
        assert throttled["replication"]["unfinished_migration_jobs"] == 0

    def test_dead_device_drops_queued_migration_io(self):
        """Regression: a fail-stopped device used to keep serving its queued
        migration jobs — with a slow throttle, arbitrarily long after death.
        The corpse's pending rebalance I/O is dropped uncharged instead."""
        spec = tiny_fleet_spec(
            "dead-device-migration",
            FleetSpec(
                devices=3,
                replication=2,
                events=(DeviceJoin(device=3, at_seconds=100.0),),
                failures=(DeviceFailure(device=0, at_seconds=101.0),),
                # One token per 100s: csd0 still has queued migration jobs
                # from the join when it dies one second later.
                throttle=MigrationThrottle(objects_per_second=0.01),
            ),
            repetitions=2,
        )
        # The runner's invariant checker independently rejects any busy
        # interval starting after a device's failure instant.
        report = RUNNER.run(spec)
        assert report.replication["dropped_migration_jobs"] > 0
        service = StorageService(spec)
        service.run()
        dead = service.fleet.members[0]
        assert dead.failed_at == 101.0
        for interval in dead.device.busy_intervals:
            assert interval.start <= dead.failed_at

    def test_observed_rate_stays_below_cap_with_bursts(self):
        """Regression: the first `burst` jobs ride pre-accrued tokens and
        used to inflate the reported rate above the configured cap."""
        spec = tiny_fleet_spec(
            "bursty-throttle",
            FleetSpec(
                devices=3,
                replication=1,
                events=(DeviceJoin(device=3, at_seconds=50.0),),
                throttle=MigrationThrottle(objects_per_second=0.05, burst=4),
            ),
            repetitions=2,
        )
        report = RUNNER.run(spec)
        observed = report.replication["throttle"]["observed_objects_per_second"]
        assert observed, "expected at least one device to sustain past its burst"
        for rate in observed.values():
            assert 0 < rate <= 0.05 + 1e-9

    def test_throttle_validation(self):
        with pytest.raises(ScenarioError, match="positive"):
            MigrationThrottle(objects_per_second=0.0)
        with pytest.raises(ScenarioError, match="burst"):
            MigrationThrottle(objects_per_second=1.0, burst=0)
        with pytest.raises(ScenarioError, match="MigrationThrottle"):
            FleetSpec(devices=2, throttle="fast")


class TestReplicationChurnProperty:
    """Hypothesis: replica accounting survives arbitrary membership churn."""

    @given(
        data=st.data(),
        initial_devices=st.integers(min_value=2, max_value=3),
        initial_replication=st.integers(min_value=1, max_value=2),
        drain_at=st.none() | st.sampled_from([0.0, 10.0, 20.0, 45.0, 90.0]),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_live_replicas_match_placement_after_any_sequence(
        self, data, initial_devices, initial_replication, drain_at
    ):
        operations = data.draw(
            st.lists(
                st.sampled_from(["join", "leave", "fail", "set-replication"]),
                min_size=0,
                max_size=3,
            )
        )
        events = []
        failures = []
        next_index = initial_devices
        at = 20.0
        for operation in operations:
            if operation == "join":
                events.append(DeviceJoin(next_index, at))
                next_index += 1
            elif operation == "leave":
                target = data.draw(
                    st.integers(min_value=0, max_value=next_index - 1)
                )
                events.append(DeviceLeave(target, at))
            elif operation == "fail":
                target = data.draw(
                    st.integers(min_value=0, max_value=initial_devices - 1)
                )
                failures.append(DeviceFailure(target, at))
            else:
                events.append(
                    SetReplication(
                        data.draw(st.integers(min_value=1, max_value=3)), at
                    )
                )
            at += 20.0
        try:
            fleet = FleetSpec(
                devices=initial_devices,
                replication=initial_replication,
                events=tuple(events),
                failures=tuple(failures),
            )
            spec = tiny_fleet_spec("churn-property", fleet, tenants=2)
        except ScenarioError:
            # Invalid timelines (double leaves, R above roster, ...) are the
            # validator's job; the property quantifies over the valid ones.
            return
        service = StorageService(spec)
        if drain_at is not None:
            # The admin hatch, anywhere in the timeline: pull every queued
            # GET out of the fleet and hand the lot straight back.
            service.submit_workload()
            service.env.run(until=drain_at)
            service.backend.submit_many(service.drain_pending())
        result = service.run()
        fleet_router = service.fleet
        # Live-replica counts per key match the placement the current epoch
        # computed, every listed replica is physically present, and repair /
        # rebalancing kept the fleet at the effective factor.
        target = service.controller.effective_replication
        for object_key, replicas in fleet_router.placement.items():
            assert len(set(replicas)) == len(replicas)
            live = [
                device_id
                for device_id in replicas
                if fleet_router.membership.by_id[device_id].alive
            ]
            assert len(live) == target
            for device_id in live:
                member = fleet_router.membership.by_id[device_id]
                assert member.device.layout.has_object(object_key)
        # No member's outstanding counter ever went negative (the router
        # raises mid-run) and none ends the run non-zero.
        for member in fleet_router.members:
            assert member.outstanding == 0
        # Conservation across the churn: everything issued was served.
        issued = result.total_get_requests()
        assert fleet_router.device_stats.objects_served == issued
        assert fleet_router.pending_total() == 0
