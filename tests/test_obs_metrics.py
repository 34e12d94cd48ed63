"""Tests for the metrics catalogue.

Counters are plain attributes on the components that bump them; the
:class:`~repro.obs.MetricsRegistry` only files names over them and reads the
attributes at snapshot time.  These tests pin the catalogue itself and that,
after a run, the snapshot *is* the attributes — name by name.
"""

import json

import pytest

from repro.csd.device import ColdStorageDevice, DeviceStats
from repro.exceptions import ConfigurationError
from repro.fleet.router import FleetRouterStats
from repro.obs import MetricsRegistry
from repro.scenarios.registry import get_scenario
from repro.scenarios.report import canonical
from repro.service import StorageService


class Source:
    def __init__(self):
        self.hits = 0
        self.seconds = 0.0
        self.delays = []

    @property
    def doubled(self):
        return 2 * self.hits


class TestMetricsRegistry:
    def test_values_are_read_at_snapshot_time(self):
        registry, source = MetricsRegistry(), Source()
        registry.publish("t", source, ("hits", "seconds", "doubled"))
        assert registry.to_dict() == {"t.doubled": 0, "t.hits": 0, "t.seconds": 0.0}
        source.hits += 3
        source.seconds += 1.5
        assert registry.get("t.hits") == 3
        assert registry.to_dict() == {"t.doubled": 6, "t.hits": 3, "t.seconds": 1.5}
        assert isinstance(registry.get("t.hits"), int)
        assert isinstance(registry.get("t.seconds"), float)

    def test_sample_list_renders_as_count_sum_min_max(self):
        registry, source = MetricsRegistry(), Source()
        registry.publish("t", source, ("delays",))
        assert registry.get("t.delays") == {"count": 0, "sum": 0, "min": 0.0, "max": 0.0}
        source.delays.extend((3.0, 0.25))
        assert registry.get("t.delays") == {"count": 2, "sum": 3.25, "min": 0.25, "max": 3.0}

    def test_mapping_publishes_an_attribute_under_another_name(self):
        registry, source = MetricsRegistry(), Source()
        registry.publish("t", source, {"hits_total": "hits"})
        source.hits = 4
        assert registry.to_dict() == {"t.hits_total": 4}

    def test_names_sorted_and_len(self):
        registry, source = MetricsRegistry(), Source()
        registry.publish("b", source, ("hits",))
        registry.publish("a", source, ("hits", "seconds"))
        assert registry.names() == ["a.hits", "a.seconds", "b.hits"]
        assert len(registry) == 3
        assert registry.get("missing") is None

    def test_to_dict_snapshot_is_json_serializable(self):
        registry, source = MetricsRegistry(), Source()
        registry.publish("z", source, ("hits", "delays"))
        registry.publish("a", source, ("seconds",))
        snapshot = registry.to_dict()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)  # must not raise

    def test_duplicate_name_rejected(self):
        """Two components never share one metric silently."""
        registry = MetricsRegistry()
        registry.publish("device.csd0", DeviceStats(), DeviceStats.COUNTERS)
        with pytest.raises(ConfigurationError, match="device.csd0.objects_served.*already"):
            registry.publish("device.csd0", DeviceStats(), DeviceStats.COUNTERS)
        registry.publish("device.csd1", DeviceStats(), DeviceStats.COUNTERS)

    def test_empty_name_rejected(self):
        registry, source = MetricsRegistry(), Source()
        with pytest.raises(ConfigurationError, match="non-empty"):
            registry.publish("", source, ("hits",))
        with pytest.raises(ConfigurationError, match="non-empty"):
            registry.publish("t", source, ("",))
        assert len(registry) == 0

    def test_unknown_field_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="Source has no attribute 'misses'"):
            registry.publish("t", Source(), ("misses",))


class TestComponentStatsCompatibility:
    """The stats classes are plain numbers; their owners publish them."""

    def test_device_stats_registers_namespaced_metrics(self):
        service = StorageService(get_scenario("uniform"))
        registry = MetricsRegistry()
        device = ColdStorageDevice(
            service.env,
            service.object_store,
            service.layout,
            service.scheduler,
            name="csd7",
            metrics=registry,
        )
        stats = device.stats
        stats.objects_served += 1
        stats.migration_seconds += 2.5
        assert registry.get("device.csd7.objects_served") == stats.objects_served == 1
        assert registry.get("device.csd7.migration_seconds") == 2.5
        assert registry.get("device.csd7.scheduler.num_switches") == 0
        assert [name for name in registry.names() if not name.startswith("device.csd7.")] == []
        with pytest.raises(AttributeError):
            stats.metrics = registry  # nothing but the counters: __slots__

    def test_device_stats_absorb_sums_field_wise(self):
        stats, other = DeviceStats(), DeviceStats()
        assert [getattr(stats, field) for field in DeviceStats.COUNTERS] == [0, 0, 0, 0, 0.0, 0.0, 0]
        stats.objects_served += 2
        stats.migration_seconds += 2.5
        other.objects_served = 1
        other.objects_per_client["tenant0"] = 1
        stats.absorb(other)
        assert (stats.objects_served, stats.migration_seconds) == (3, 2.5)
        assert stats.objects_per_client == {"tenant0": 1}

    def test_router_stats_registers_metrics(self):
        service = StorageService(get_scenario("fleet-uniform"))
        stats = service.fleet.stats
        stats.requests_routed += 4
        stats.failed_over += 1
        stats.choice_diverted += 1
        stats.request_latency.append(1.5)
        assert service.metrics.get("router.requests_routed") == 4
        assert service.metrics.get("router.failed_over") == 1
        assert service.metrics.get("router.request_latency")["count"] == 1
        assert (stats.choice_primary, stats.choice_diverted) == (0, 1)
        # The names follow the attributes; the pre-catalogue spellings are gone.
        router_names = [name for name in service.metrics.names() if name.startswith("router.")]
        assert router_names == sorted(f"router.{field}" for field in FleetRouterStats.__slots__)

    def test_unregistered_device_is_simply_not_catalogued(self):
        service = StorageService(get_scenario("uniform"))
        before = len(service.metrics)
        device = ColdStorageDevice(
            service.env, service.object_store, service.layout, service.scheduler, name="spare"
        )
        device.stats.objects_served += 1
        assert len(service.metrics) == before

    def test_service_registry_is_populated_by_a_run(self):
        service = StorageService(get_scenario("admission-burst"))
        service.run()
        names = service.metrics.names()
        assert "device.csd0.objects_served" in names
        assert "admission.in_flight" in names
        summary = service.admission.summary()
        for tenant_id in summary["per_tenant"]:
            for field in ("submitted", "admitted", "queued", "rejected", "queue_delay"):
                assert f"admission.tenant.{tenant_id}.{field}" in names
        assert summary["peak_in_flight"] == service.metrics.get("admission.peak_in_flight") > 0
        assert summary["peak_queue_depth"] == service.metrics.get("admission.peak_queue_depth") > 0
        assert summary["queued"] == sum(
            service.metrics.get(f"admission.tenant.{tenant_id}.queue_delay")["count"]
            for tenant_id in summary["per_tenant"]
        )

    def test_admission_peaks_respect_the_caps(self):
        service = StorageService(get_scenario("admission-burst"))
        service.run()
        admission = service.admission
        assert 0 < admission.peak_in_flight <= admission.config.max_in_flight
        assert 0 < admission.peak_queue_depth <= admission.config.max_queue_depth
        assert (admission.in_flight, admission.waiting) == (0, 0)


def _catalogued_attributes(service):
    """``metric name -> value``, rebuilt from the components without the registry."""
    expected = {"sim.events_dispatched": service.env.dispatched}
    for device in service.devices:
        prefix = f"device.{device.name}"
        for field in DeviceStats.COUNTERS:
            expected[f"{prefix}.{field}"] = getattr(device.stats, field)
        expected[f"{prefix}.scheduler.num_switches"] = device.scheduler.num_switches
        expected[f"{prefix}.scheduler.max_waiting_seen"] = device.scheduler.max_waiting_seen
    if service.fleet is not None:
        stats = service.fleet.stats
        for field in FleetRouterStats.__slots__:
            expected[f"router.{field}"] = getattr(stats, field)
    admission = service.admission
    if admission is not None:
        expected["admission.in_flight"] = admission.in_flight
        expected["admission.waiting"] = admission.waiting
        expected["admission.peak_in_flight"] = admission.peak_in_flight
        expected["admission.peak_queue_depth"] = admission.peak_queue_depth
        for tenant_id, entry in admission.summary()["per_tenant"].items():
            for field in ("submitted", "admitted", "queued", "rejected"):
                expected[f"admission.tenant.{tenant_id}.{field}"] = entry[field]
            expected[f"admission.tenant.{tenant_id}.queue_delay"] = admission._counters[
                tenant_id
            ].queue_delay
    return expected


@pytest.mark.parametrize(
    "scenario", ["admission-burst", "fleet-device-loss", "fleet-elastic-join"]
)
def test_snapshot_equals_the_attributes_it_catalogues(scenario):
    service = StorageService(get_scenario(scenario))
    result = service.run()
    snapshot = service.metrics.to_dict()
    expected = _catalogued_attributes(service)
    assert list(snapshot) == sorted(expected) == service.metrics.names()
    for name, value in expected.items():
        if isinstance(value, list):
            value = {
                "count": len(value),
                "sum": sum(value),
                "min": min(value, default=0.0),
                "max": max(value, default=0.0),
            }
        assert snapshot[name] == value, name
    json.dumps(snapshot)  # must not raise
    assert snapshot["sim.events_dispatched"] > 0
    names = [device.name for device in service.devices]
    assert sum(snapshot[f"device.{name}.objects_served"] for name in names) == (
        result.device_objects_served
    )
    # The paper's switch count (Fig. 9 / Table 3), device- and scheduler-side.
    assert sum(snapshot[f"device.{name}.group_switches"] for name in names) == (
        result.device_switches
    )
    assert sum(snapshot[f"device.{name}.scheduler.num_switches"] for name in names) == (
        result.device_switches
    )


@pytest.mark.parametrize("scenario", ["fleet-device-loss", "fleet-throttled-rebalance"])
def test_fleet_device_stats_is_the_field_wise_sum_over_devices(scenario):
    service = StorageService(get_scenario(scenario))
    service.run()
    combined = service.fleet.device_stats
    devices = service.devices
    assert len(devices) > 1
    for field in DeviceStats.COUNTERS:
        total = 0
        for device in devices:
            total += getattr(device.stats, field)
        assert getattr(combined, field) == total, field
    per_client = {}
    for device in devices:
        for client_id, count in device.stats.objects_per_client.items():
            per_client[client_id] = per_client.get(client_id, 0) + count
    assert combined.objects_per_client == per_client
    assert combined.objects_served == sum(per_client.values()) > 0


class TestCanonicalNonFinite:
    """``canonical`` must reject NaN/Inf instead of emitting invalid JSON."""

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical({"metric": float("nan")})

    def test_infinity_rejected_in_nested_list(self):
        with pytest.raises(ConfigurationError):
            canonical({"values": [1.0, float("inf")]})

    def test_finite_floats_still_round(self):
        assert canonical({"v": 1.23456789012}) == {"v": 1.23456789}
        assert canonical(-0.0) == 0.0
