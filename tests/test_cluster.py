"""Tests for the multi-client cluster harness and its metrics."""

import pytest

from repro.cluster import ClientSpec, ClusterConfig
from repro.cluster.metrics import (
    ExecutionBreakdown,
    attribute_waiting_batch,
    l2_norm,
    max_stretch,
    mean,
    stretches,
)
from repro.csd.device import BusyInterval, DeviceConfig
from repro.csd.layout import ClientsPerGroupLayout
from repro.csd.scheduler import ObjectFCFSScheduler, RankBasedScheduler
from repro.engine.executor import canonical_rows
from repro.engine import InMemoryExecutor
from repro.service import StorageService
from repro.exceptions import ConfigurationError
from repro.workloads import tpch


def _one_query(blocked, busy, processing_time=0.0):
    """One query's attribution: the one-element batch."""
    return attribute_waiting_batch([blocked], busy, [processing_time])[0]


class TestMetrics:
    def test_attribute_waiting_splits_by_device_activity(self):
        busy = [
            BusyInterval(start=0.0, end=10.0, kind="switch", group_id=0),
            BusyInterval(start=10.0, end=20.0, kind="transfer", group_id=0, client_id="c0"),
        ]
        breakdown = _one_query([(0.0, 15.0)], busy, processing_time=5.0)
        assert breakdown.switch_wait == pytest.approx(10.0)
        assert breakdown.transfer_wait == pytest.approx(5.0)
        assert breakdown.other_wait == pytest.approx(0.0)
        assert breakdown.processing == pytest.approx(5.0)
        assert breakdown.total == pytest.approx(20.0)
        fractions = breakdown.fractions()
        assert fractions["switch"] == pytest.approx(0.5)

    def test_attribute_waiting_unaccounted_time_is_other(self):
        breakdown = _one_query([(0.0, 5.0)], [], processing_time=0.0)
        assert breakdown.other_wait == pytest.approx(5.0)

    def test_attribute_waiting_rejects_inverted_interval(self):
        with pytest.raises(ConfigurationError):
            _one_query([(5.0, 1.0)], [])

    def test_empty_breakdown_fractions(self):
        assert ExecutionBreakdown(0, 0, 0, 0).fractions()["processing"] == 0.0

    def test_stretch_and_norms(self):
        values = stretches([10.0, 20.0, 30.0], ideal_time=10.0)
        assert values == [1.0, 2.0, 3.0]
        assert max_stretch(values) == 3.0
        assert l2_norm(values) == pytest.approx((1 + 4 + 9) ** 0.5)
        assert mean(values) == pytest.approx(2.0)
        assert mean([]) == 0.0

    def test_stretch_requires_positive_ideal(self):
        with pytest.raises(ConfigurationError):
            stretches([1.0], 0.0)
        with pytest.raises(ConfigurationError):
            max_stretch([])


class TestClientSpecValidation:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientSpec(client_id="c", queries=[tpch.q12()], mode="mystery")

    def test_empty_queries_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientSpec(client_id="c", queries=[])

    def test_nonpositive_repetitions_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientSpec(client_id="c", queries=[tpch.q12()], repetitions=0)

    def test_cluster_requires_unique_clients(self):
        spec = ClientSpec(client_id="c", queries=[tpch.q12()])
        with pytest.raises(ConfigurationError):
            ClusterConfig(client_specs=[spec, spec])

    def test_cluster_requires_clients(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(client_specs=[])


class TestClusterRuns:
    def _config(self, num_clients, mode, repetitions=1):
        return ClusterConfig(
            client_specs=[
                ClientSpec(
                    client_id=f"client{i}",
                    queries=[tpch.q12()],
                    mode=mode,
                    repetitions=repetitions,
                    cache_capacity=10,
                )
                for i in range(num_clients)
            ],
            layout_policy=ClientsPerGroupLayout(1),
            device_config=DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=1.0),
        )

    def test_every_client_gets_correct_answers(self, tiny_tpch_catalog):
        expected = canonical_rows(InMemoryExecutor(tiny_tpch_catalog).execute(tpch.q12()).rows)
        service = StorageService(self._config(3, "skipper"), catalog=tiny_tpch_catalog, scheduler_factory=RankBasedScheduler)
        result = service.run()
        assert set(result.results_by_client) == {"client0", "client1", "client2"}
        for client_results in result.results_by_client.values():
            assert len(client_results) == 1
            assert canonical_rows(client_results[0].rows) == expected

    def test_repetitions_produce_multiple_results(self, tiny_tpch_catalog):
        service = StorageService(self._config(2, "skipper", repetitions=3), catalog=tiny_tpch_catalog)
        result = service.run()
        for client_results in result.results_by_client.values():
            assert len(client_results) == 3
        assert len(result.execution_times()) == 6
        assert result.cumulative_execution_time() == pytest.approx(sum(result.execution_times()))

    def test_vanilla_scaling_is_roughly_linear_in_clients(self, tiny_tpch_catalog):
        times = []
        for count in (1, 2, 4):
            service = StorageService(self._config(count, "vanilla"), catalog=tiny_tpch_catalog, scheduler_factory=ObjectFCFSScheduler)
            times.append(service.run().average_execution_time())
        assert times[0] < times[1] < times[2]
        # Quadrupling the clients should cost at least 2.5x (paper: ~linear).
        assert times[2] / times[0] > 2.5

    def test_skipper_scales_better_than_vanilla(self, tiny_tpch_catalog):
        vanilla = StorageService(self._config(4, "vanilla"), catalog=tiny_tpch_catalog, scheduler_factory=ObjectFCFSScheduler).run()
        skipper = StorageService(self._config(4, "skipper"), catalog=tiny_tpch_catalog, scheduler_factory=RankBasedScheduler).run()
        assert skipper.average_execution_time() < vanilla.average_execution_time()
        assert skipper.device_switches < vanilla.device_switches

    def test_breakdowns_cover_execution_time(self, tiny_tpch_catalog):
        service = StorageService(self._config(2, "vanilla"), catalog=tiny_tpch_catalog)
        result = service.run()
        breakdown = result.average_breakdown()
        average_time = result.average_execution_time()
        assert breakdown.total == pytest.approx(average_time, rel=0.15)
        assert breakdown.switch_wait > 0

    def test_total_get_requests_counts_all_clients(self, tiny_tpch_catalog):
        service = StorageService(self._config(2, "skipper"), catalog=tiny_tpch_catalog)
        result = service.run()
        per_query_objects = tiny_tpch_catalog.num_segments("orders") + tiny_tpch_catalog.num_segments(
            "lineitem"
        )
        assert result.total_get_requests() >= 2 * per_query_objects
        assert result.device_objects_served == result.total_get_requests()

    def test_heterogeneous_modes_in_one_cluster(self, tiny_tpch_catalog):
        config = ClusterConfig(
            client_specs=[
                ClientSpec(client_id="fast", queries=[tpch.q12()], mode="skipper", cache_capacity=10),
                ClientSpec(client_id="slow", queries=[tpch.q12()], mode="vanilla"),
            ],
            layout_policy=ClientsPerGroupLayout(1),
            device_config=DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=1.0),
        )
        result = StorageService(config, catalog=tiny_tpch_catalog).run()
        assert set(result.results_by_client) == {"fast", "slow"}
