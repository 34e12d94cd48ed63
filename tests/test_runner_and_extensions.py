"""Tests for the CLI runner, the slack-FCFS scheduler and the client proxy."""

import runpy
import sys

import pytest

from repro.core.client_proxy import ClientProxy
from repro.csd import (
    ClientsPerGroupLayout,
    ColdStorageDevice,
    DeviceConfig,
    ObjectFCFSScheduler,
    ObjectStore,
    SlackFCFSScheduler,
)
from repro.csd.request import GetRequest
from repro.exceptions import ConfigurationError, SchedulingError
from repro.harness import runner
from repro.sim import Environment


class TestSlackFCFSScheduler:
    def test_slack_must_be_positive(self):
        with pytest.raises(SchedulingError):
            SlackFCFSScheduler(slack=0)

    def test_slack_one_equals_strict_fcfs_quota(self):
        assert SlackFCFSScheduler(slack=1).service_quota(0) == 1

    def test_quota_is_bounded_by_slack_and_pending(self):
        env = Environment()
        scheduler = SlackFCFSScheduler(slack=3)
        for index in range(5):
            scheduler.add_request(
                GetRequest(f"c0/t.{index}", "c0", "q0", env.event()), group_id=0
            )
        assert scheduler.service_quota(0) == 3
        assert scheduler.choose_next_group(None) == 0

    def test_chooses_group_of_oldest_request(self):
        env = Environment()
        scheduler = SlackFCFSScheduler(slack=4)
        scheduler.add_request(GetRequest("c0/t.0", "c0", "q0", env.event()), group_id=2)
        scheduler.add_request(GetRequest("c1/t.0", "c1", "q1", env.event()), group_id=0)
        assert scheduler.choose_next_group(None) == 2

    def test_choose_next_group_without_pending_raises(self):
        with pytest.raises(SchedulingError):
            SlackFCFSScheduler().choose_next_group(None)

    def test_slack_reduces_switches_compared_to_strict_fcfs(self, tiny_tpch_catalog):
        """Interleaved requests from two tenants: slack groups same-group work."""

        def run(scheduler):
            env = Environment()
            store = ObjectStore()
            client_objects = {}
            for client in ("c0", "c1"):
                keys = [
                    store.put_segment(client, segment.segment_id, segment)
                    for segment in tiny_tpch_catalog.relation("lineitem").segments
                ]
                client_objects[client] = keys
            layout = ClientsPerGroupLayout(1).build(client_objects)
            device = ColdStorageDevice(env, store, layout, scheduler, DeviceConfig(10.0, 1.0))

            def driver(env):
                # Submit the two tenants' requests interleaved: c0.0, c1.0,
                # c0.1, c1.1, ... so strict FCFS must ping-pong between groups.
                requests = []
                for first, second in zip(client_objects["c0"], client_objects["c1"]):
                    requests.append(device.get(first, "c0", "c0:q"))
                    requests.append(device.get(second, "c1", "c1:q"))
                yield env.all_of([request.completion for request in requests])

            env.process(driver(env))
            env.run()
            return device.stats.group_switches

        strict_switches = run(ObjectFCFSScheduler())
        slack_switches = run(SlackFCFSScheduler(slack=8))
        assert strict_switches >= 2 * len(tiny_tpch_catalog.segment_ids("lineitem")) - 1
        assert slack_switches < strict_switches
        assert slack_switches <= 3


class TestClientProxy:
    def _device(self, catalog, env):
        store = ObjectStore()
        keys = [
            store.put_segment("tenant", segment.segment_id, segment)
            for segment in catalog.relation("orders").segments
        ]
        layout = ClientsPerGroupLayout(1).build({"tenant": keys})
        return ColdStorageDevice(env, store, layout, SlackFCFSScheduler(), DeviceConfig(1.0, 1.0))

    def test_query_ids_are_unique_and_tagged(self, tiny_tpch_catalog):
        env = Environment()
        device = self._device(tiny_tpch_catalog, env)
        proxy = ClientProxy(env, device, "tenant")
        first = proxy.new_query_id("q12")
        second = proxy.new_query_id("q12")
        assert first != second
        assert first.startswith("tenant:q12:")

    def test_arrivals_are_delivered_with_segment_ids(self, tiny_tpch_catalog):
        env = Environment()
        device = self._device(tiny_tpch_catalog, env)
        proxy = ClientProxy(env, device, "tenant")
        segment_ids = tiny_tpch_catalog.segment_ids("orders")
        received = []

        def consumer(env):
            proxy.request_objects(segment_ids, proxy.new_query_id("scan"))
            for _ in segment_ids:
                segment_id, payload = yield proxy.arrivals.get()
                received.append((segment_id, payload.segment_id))

        env.process(consumer(env))
        env.run()
        assert sorted(segment_id for segment_id, _ in received) == sorted(segment_ids)
        assert all(segment_id == payload_id for segment_id, payload_id in received)
        assert proxy.requests_issued == len(segment_ids)
        assert proxy.requests_completed == len(segment_ids)
        # Everything delivered was consumed: the proxy retains no request.
        assert len(proxy.arrivals) == 0


class TestRunner:
    def test_list_experiments_contains_every_figure(self):
        names = runner.list_experiments()
        for expected in (
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11a",
            "figure11b",
            "figure11c",
            "figure12",
            "table2",
            "table3",
        ):
            assert expected in names

    def test_run_experiment_with_overrides(self):
        result = runner.run_experiment("figure2", database_gb=1024)
        assert result["all-sata"] == pytest.approx(4.5 * 1024 / 1000)

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError):
            runner.run_experiment("figure99")

    def test_unknown_option_names_the_accepted_ones(self):
        with pytest.raises(ConfigurationError, match="client_counts, scale"):
            runner.run_experiment("figure4", nope=1)

    def test_scalar_for_a_sequence_option_is_a_sequence_of_one(self):
        result = runner.run_experiment("figure4", client_counts=3, scale="tiny")
        assert result["clients"] == [3]
        result = runner.run_experiment("figure4", client_counts=[1, 2], scale="tiny")
        assert result["clients"] == [1, 2]

    def test_module_entry_point_prints_repro_errors_and_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["repro", "run", "figure4", "-o", "nope=1"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("repro", run_name="__main__")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("error: experiment 'figure4' has no option")

    def test_option_parsing(self):
        assert runner._parse_option("scale=small") == ("scale", "small")
        assert runner._parse_option("client_counts=1,3,5") == ("client_counts", (1, 3, 5))
        assert runner._parse_option("switch=2.5") == ("switch", 2.5)
        assert runner._parse_option("flag=true") == ("flag", True)
        with pytest.raises(ConfigurationError):
            runner._parse_option("no-equals-sign")

    def test_render_result_handles_series_and_nested_mappings(self):
        series = {"clients": [1, 2], "time": [10.0, 20.0]}
        text = runner.render_result("figure4", series)
        assert "clients" in text and "20" in text
        nested = {"postgresql": {"a": 1.0}, "skipper": {"a": 2.0}}
        text = runner.render_result("figure9", nested)
        assert "postgresql" in text and "skipper" in text

    def test_main_list_and_run(self, capsys):
        assert runner.main(["list"]) == 0
        captured = capsys.readouterr()
        assert "figure7" in captured.out
        assert runner.main(["run", "table2"]) == 0
        captured = capsys.readouterr()
        assert "experiment: table2" in captured.out

    def test_main_run_with_options(self, capsys):
        code = runner.main(
            ["run", "figure4", "-o", "client_counts=1,2", "-o", "scale=tiny"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "postgresql_on_csd" in captured.out
