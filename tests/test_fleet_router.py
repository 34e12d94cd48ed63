"""Fleet router: routing, replica choice, failover and aggregation."""

from __future__ import annotations

import pytest

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig
from repro.csd.request import GetRequest
from repro.exceptions import FleetError, ScenarioError
from repro.fleet.report import fleet_metrics
from repro.fleet.spec import DeviceFailure, FleetSpec
from repro.service import StorageService
from repro.workloads import tpch


def build_fleet_service(fleet_spec, num_clients=3, repetitions=1):
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
        fleet_spec=fleet_spec,
    )
    return StorageService(config, catalog=catalog)


class TestRouting:
    def test_clients_are_fleet_oblivious(self):
        service = build_fleet_service(FleetSpec(devices=3, replication=2))
        result = service.run()
        assert service.fleet is not None and service.device is None
        issued = result.total_get_requests()
        assert issued > 0
        assert service.fleet.device_stats.objects_served == issued
        assert service.fleet.stats.requests_routed == issued

    def test_single_device_fleet_serves_everything(self):
        service = build_fleet_service(FleetSpec(devices=1, replication=1))
        result = service.run()
        member = service.fleet.members[0]
        assert member.device.stats.objects_served == result.total_get_requests()

    def test_requests_only_land_on_replica_devices(self):
        service = build_fleet_service(FleetSpec(devices=4, replication=2))
        service.run()
        for member in service.fleet.members:
            if member.device is None:
                continue
            for interval in member.device.busy_intervals:
                if interval.kind != "transfer":
                    continue
                assert member.device_id in service.fleet.placement[interval.object_key]

    def test_unplaced_object_rejected(self):
        service = build_fleet_service(FleetSpec(devices=2, replication=1))
        with pytest.raises(FleetError):
            service.fleet.submit_many(
                [GetRequest("nobody/nothing.0", "c0", "q", service.env.event())]
            )

    def test_merged_busy_intervals_ordered_by_completion(self):
        service = build_fleet_service(FleetSpec(devices=3, replication=2))
        service.run()
        merged = service.fleet.busy_intervals
        assert merged
        assert all(
            merged[index].end <= merged[index + 1].end
            for index in range(len(merged) - 1)
        )
        per_device_total = sum(
            len(member.device.busy_intervals)
            for member in service.fleet.members
            if member.device is not None
        )
        assert len(merged) == per_device_total


class TestReplicaChoice:
    def test_primary_first_uses_primary_while_alive(self):
        service = build_fleet_service(
            FleetSpec(devices=3, replication=2, replica_policy="primary-first")
        )
        service.run()
        for member in service.fleet.members:
            if member.device is None:
                continue
            for interval in member.device.busy_intervals:
                if interval.kind != "transfer":
                    continue
                primary = service.fleet.placement[interval.object_key][0]
                assert member.device_id == primary

    def test_least_loaded_tie_breaking_is_replica_order(self):
        """Ties in outstanding load resolve by replica (walk) order.

        Pins the determinism contract: with equal load the least-loaded
        policy behaves exactly like primary-first, and when the primary is
        busier the *next replica in placement order* wins — never an
        arbitrary dict/set ordering.
        """
        service = build_fleet_service(
            FleetSpec(devices=4, replication=3, replica_policy="least-loaded")
        )
        fleet = service.fleet
        object_key = next(iter(fleet.placement))
        replicas = fleet.placement[object_key]
        members = [fleet.membership.by_id[device_id] for device_id in replicas]
        # All idle: the primary (first replica) wins the 0-0-0 tie.
        assert fleet._choose_replica(replicas, object_key) is members[0]
        # Equal non-zero load: still the primary.
        for member in members:
            member.outstanding = 2
        assert fleet._choose_replica(replicas, object_key) is members[0]
        # Primary busier: the second replica in walk order wins the tie
        # between the remaining two.
        members[0].outstanding = 3
        assert fleet._choose_replica(replicas, object_key) is members[1]
        # Unique minimum anywhere in the tuple wins outright.
        members[2].outstanding = 1
        assert fleet._choose_replica(replicas, object_key) is members[2]
        for member in members:
            member.outstanding = 0

    def test_least_loaded_never_underperforms_primary_first(self):
        spreads = {}
        for policy in ("primary-first", "least-loaded"):
            service = build_fleet_service(
                FleetSpec(devices=3, replication=2, replica_policy=policy),
                num_clients=4,
                repetitions=2,
            )
            result = service.run()
            served = [member.objects_served() for member in service.fleet.members]
            spreads[policy] = (max(served) - min(served), result.total_simulated_time)
        assert spreads["least-loaded"][0] <= spreads["primary-first"][0]


class TestFailover:
    def test_device_loss_fails_over_with_zero_lost_objects(self):
        service = build_fleet_service(
            FleetSpec(
                devices=3,
                replication=2,
                failures=(DeviceFailure(device=0, at_seconds=30.0),),
            ),
            num_clients=4,
        )
        result = service.run()
        fleet = service.fleet
        dead = fleet.members[0]
        assert not dead.alive and dead.failed_at == 30.0
        assert fleet.stats.failed_over > 0
        assert fleet.pending_total() == 0
        assert fleet.device_stats.objects_served == result.total_get_requests()

    def test_dead_device_starts_no_work_after_failure(self):
        service = build_fleet_service(
            FleetSpec(
                devices=3,
                replication=2,
                failures=(DeviceFailure(device=0, at_seconds=30.0),),
            ),
            num_clients=4,
        )
        service.run()
        dead = service.fleet.members[0]
        assert all(
            interval.start <= dead.failed_at
            for interval in dead.device.busy_intervals
        )

    def test_failure_before_any_traffic_routes_everything_elsewhere(self):
        service = build_fleet_service(
            FleetSpec(
                devices=2,
                replication=2,
                failures=(DeviceFailure(device=1, at_seconds=0.0),),
            )
        )
        result = service.run()
        survivor = service.fleet.members[0]
        assert survivor.objects_served() == result.total_get_requests()

    def test_failover_requests_counted_in_received_not_served(self):
        service = build_fleet_service(
            FleetSpec(
                devices=3,
                replication=2,
                failures=(DeviceFailure(device=0, at_seconds=30.0),),
            ),
            num_clients=4,
        )
        result = service.run()
        fleet = service.fleet
        issued = result.total_get_requests()
        assert fleet.device_stats.objects_served == issued
        assert fleet.device_stats.requests_received == issued + fleet.stats.failed_over


class TestSpecValidation:
    def test_failures_require_replication(self):
        with pytest.raises(ScenarioError, match="replication >= 2"):
            FleetSpec(devices=3, replication=1, failures=(DeviceFailure(0, 10.0),))

    def test_too_many_failures_rejected_without_repair(self):
        with pytest.raises(ScenarioError, match="replication-1"):
            FleetSpec(
                devices=3,
                replication=2,
                failures=(DeviceFailure(0, 10.0), DeviceFailure(1, 20.0)),
                repair=False,
            )

    def test_repair_lifts_the_cumulative_failure_budget(self):
        # With read-repair each loss is re-replicated before the next, so
        # R-1 is no longer a lifetime cap — every failure just needs a
        # surviving device to repair from.
        FleetSpec(
            devices=3,
            replication=2,
            failures=(DeviceFailure(0, 10.0), DeviceFailure(1, 20.0)),
        )
        # ... which is exactly what the last failure here lacks.
        with pytest.raises(ScenarioError, match="no surviving device"):
            FleetSpec(
                devices=3,
                replication=2,
                failures=(
                    DeviceFailure(0, 10.0),
                    DeviceFailure(1, 20.0),
                    DeviceFailure(2, 30.0),
                ),
            )

    def test_failure_index_bounds_checked(self):
        with pytest.raises(ScenarioError, match="out of range"):
            FleetSpec(devices=2, replication=2, failures=(DeviceFailure(5, 10.0),))

    def test_replication_bounds_checked(self):
        with pytest.raises(ScenarioError):
            FleetSpec(devices=2, replication=3)
        with pytest.raises(ScenarioError):
            FleetSpec(devices=0)

    def test_spec_dict_roundtrips_every_knob(self):
        spec = FleetSpec(
            devices=4,
            replication=2,
            replica_policy="least-loaded",
            failures=(DeviceFailure(1, 12.5),),
        )
        description = spec.to_dict()
        assert description["devices"] == 4
        assert description["failures"] == [{"device": 1, "at_seconds": 12.5}]


class TestMetrics:
    def test_metrics_cover_every_device_even_idle_ones(self):
        # 24 devices for a handful of objects: consistent hashing will leave
        # some devices empty, and they must still show up with zero load.
        service = build_fleet_service(FleetSpec(devices=24, replication=1), num_clients=1)
        result = service.run()
        metrics = fleet_metrics(service.fleet, result.total_simulated_time)
        assert len(metrics["per_device"]) == 24
        idle = [
            entry
            for entry in metrics["per_device"].values()
            if entry["objects_placed"] == 0
        ]
        assert idle, "expected at least one empty device at this scale"
        assert all(entry["utilization"] == 0.0 for entry in idle)

    def test_utilization_and_throughput_are_consistent(self):
        service = build_fleet_service(FleetSpec(devices=3, replication=2))
        result = service.run()
        metrics = fleet_metrics(service.fleet, result.total_simulated_time)
        total_served = sum(
            entry["objects_served"] for entry in metrics["per_device"].values()
        )
        assert total_served == result.total_get_requests()
        assert metrics["aggregate_throughput"] == pytest.approx(
            total_served / result.total_simulated_time
        )
        assert 0.0 <= metrics["imbalance_coefficient"]
        assert 0.0 < metrics["tenant_fairness"] <= 1.0
