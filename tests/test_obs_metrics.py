"""Tests for the metrics registry (counters, gauges, histograms).

Also pins :class:`~repro.obs.CounterView`, the one descriptor through which
the component stats objects (``DeviceStats``, ``FleetRouterStats``) expose
their registry counters as plain readable/writable numbers.
"""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import Counter, CounterView, Gauge, Histogram, MetricsRegistry
from repro.scenarios.report import canonical


class TestCounter:
    def test_starts_at_initial_and_increments(self):
        counter = Counter("c", initial=0)
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_float_counter_keeps_float_type(self):
        counter = Counter("seconds", initial=0.0)
        counter.inc(1.5)
        assert counter.value == 1.5
        assert isinstance(counter.value, float)

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_to_dict(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter.to_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_tracks_value_and_peak(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 5

    def test_to_dict(self):
        gauge = Gauge("g")
        gauge.set(4)
        assert gauge.to_dict() == {"type": "gauge", "value": 4, "peak": 4}


class TestHistogram:
    def test_buckets_and_samples(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.samples == [0.5, 5.0, 50.0]
        assert hist.count == 3
        assert hist.sum == 55.5

    def test_boundary_value_goes_to_lower_bucket(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0, 0]

    def test_default_bounds_used_when_none(self):
        hist = Histogram("h")
        assert hist.bounds[0] == 0.5

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_to_dict_min_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(3.0)
        hist.observe(0.25)
        document = hist.to_dict()
        assert document["min"] == 0.25
        assert document["max"] == 3.0
        assert document["count"] == 2


class TestMetricsRegistry:
    def test_same_name_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")
        with pytest.raises(ConfigurationError):
            registry.histogram("a")

    def test_empty_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("")

    def test_names_sorted_and_len(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2
        assert registry.get("a") is not None
        assert registry.get("missing") is None

    def test_to_dict_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(2)
        registry.gauge("depth").set(3)
        registry.histogram("delay", bounds=(1.0,)).observe(0.5)
        snapshot = registry.to_dict()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)  # must not raise


class TestCounterView:
    class Stats:
        hits = CounterView()
        seconds = CounterView()

        def __init__(self, registry):
            self._hits = registry.counter("t.hits")
            self._seconds = registry.counter("t.seconds", 0.0)

    def test_reads_the_instance_counter(self):
        registry = MetricsRegistry()
        stats = self.Stats(registry)
        stats._hits.inc(3)
        stats._seconds.inc(1.5)
        assert stats.hits == 3
        assert stats.seconds == 1.5
        assert isinstance(stats.hits, int) and isinstance(stats.seconds, float)

    def test_writes_land_in_the_registry(self):
        registry = MetricsRegistry()
        stats = self.Stats(registry)
        stats.hits = 7
        stats.hits += 2
        stats.hits -= 4  # a view write sets the value; only inc() is monotonic
        assert registry.get("t.hits").value == 5
        assert registry.to_dict()["t.hits"] == {"type": "counter", "value": 5}

    def test_instances_do_not_share_values(self):
        first, second = self.Stats(MetricsRegistry()), self.Stats(MetricsRegistry())
        first.hits = 1
        assert second.hits == 0

    def test_class_access_returns_the_descriptor(self):
        assert isinstance(self.Stats.hits, CounterView)
        assert self.Stats.hits is not self.Stats.seconds


class TestComponentStatsCompatibility:
    """The component stats classes expose their counters via CounterView."""

    def test_device_stats_registers_namespaced_metrics(self):
        from repro.csd.device import DeviceStats

        registry = MetricsRegistry()
        stats = DeviceStats(name="csd7", metrics=registry)
        stats.record_served("tenant0")
        stats.record_switch()
        stats.record_migration(2.5, interfered=True)
        assert registry.get("device.csd7.objects_served").value == 1
        assert stats.objects_served == 1
        assert stats.group_switches == 1
        assert stats.migration_jobs == 1
        assert stats.migration_seconds == stats.migration_interference_seconds == 2.5
        stats.objects_served += 2
        assert registry.get("device.csd7.objects_served").value == 3
        assert isinstance(DeviceStats.objects_served, CounterView)

    def test_router_stats_registers_metrics(self):
        from repro.fleet.router import FleetRouterStats

        registry = MetricsRegistry()
        stats = FleetRouterStats(registry)
        stats.requests_routed += 4
        stats.failed_over += 1
        stats._choice_diverted.inc()
        assert registry.get("router.requests_routed").value == 4
        assert registry.get("router.failed_over_requests").value == 1
        assert (stats.choice_primary, stats.choice_diverted) == (0, 1)

    def test_service_registry_is_populated_by_a_run(self):
        from repro.scenarios.registry import get_scenario
        from repro.service import StorageService

        service = StorageService(get_scenario("admission-burst"))
        service.run()
        names = service.metrics.names()
        assert "device.csd0.objects_served" in names
        assert "admission.in_flight" in names
        assert any(name.startswith("admission.tenant.") for name in names)
        assert service.admission.summary()["peak_in_flight"] == (
            service.metrics.get("admission.in_flight").peak
        )


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
