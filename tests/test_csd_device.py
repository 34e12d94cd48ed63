"""Integration tests for the simulated Cold Storage Device."""

import pytest

from repro.csd import (
    AllInOneLayout,
    ClientsPerGroupLayout,
    ColdStorageDevice,
    DeviceConfig,
    ObjectStore,
    ObjectFCFSScheduler,
    RankBasedScheduler,
)
from repro.csd.device import BusyInterval
from repro.exceptions import ConfigurationError, StorageError
from repro.sim import Environment


def _setup(num_clients=2, objects_per_client=4, layout_policy=None, scheduler=None, config=None):
    env = Environment()
    store = ObjectStore()
    client_objects = {}
    for c in range(num_clients):
        client = f"c{c}"
        keys = [store.put_segment(client, f"t.{i}", f"payload-{client}-{i}") for i in range(objects_per_client)]
        client_objects[client] = keys
    layout = (layout_policy or ClientsPerGroupLayout(1)).build(client_objects)
    device = ColdStorageDevice(
        env,
        store,
        layout,
        scheduler or RankBasedScheduler(),
        config or DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=1.0),
    )
    return env, device, client_objects


def _batch_client(env, device, client, keys, finish_times):
    def process(env):
        requests = [device.get(key, client, f"{client}:q:0") for key in keys]
        yield env.all_of([request.completion for request in requests])
        finish_times[client] = env.now

    return env.process(process(env))


def _serial_client(env, device, client, keys, finish_times, think_time=0.0):
    def process(env):
        for key in keys:
            request = device.get(key, client, f"{client}:q:0")
            yield request.completion
            if think_time:
                yield env.timeout(think_time)
        finish_times[client] = env.now

    return env.process(process(env))


class TestBatchedAccess:
    def test_single_client_single_switch(self):
        env, device, objects = _setup(num_clients=1)
        finish = {}
        _batch_client(env, device, "c0", objects["c0"], finish)
        env.run()
        assert device.stats.group_switches == 1
        assert device.stats.objects_served == 4
        assert finish["c0"] == pytest.approx(10 + 4 * 1.0)

    def test_batched_clients_get_one_switch_per_group(self):
        env, device, objects = _setup(num_clients=3)
        finish = {}
        for client, keys in objects.items():
            _batch_client(env, device, client, keys, finish)
        env.run()
        assert device.stats.group_switches == 3
        # Clients are served group by group: finish times are staggered.
        times = sorted(finish.values())
        assert times[0] < times[1] < times[2]
        assert times[0] == pytest.approx(14.0)
        assert times[2] == pytest.approx(3 * 14.0)

    def test_payloads_are_delivered(self):
        env, device, objects = _setup(num_clients=1)
        results = {}

        def process(env):
            request = device.get(objects["c0"][2], "c0", "q")
            payload = yield request.completion
            results["payload"] = payload

        env.process(process(env))
        env.run()
        assert results["payload"] == "payload-c0-2"


class TestPullBasedAccess:
    def test_interleaved_pull_clients_pay_switch_per_object(self):
        # Two pull-based clients on different groups under object-FCFS: every
        # object access needs a group switch (the paper's pathological case).
        env, device, objects = _setup(num_clients=2, scheduler=ObjectFCFSScheduler())
        finish = {}
        for client, keys in objects.items():
            _serial_client(env, device, client, keys, finish)
        env.run()
        assert device.stats.group_switches >= 2 * 4 - 1
        assert max(finish.values()) >= 4 * 2 * 10.0

    def test_single_pull_client_needs_single_switch(self):
        env, device, objects = _setup(num_clients=1, scheduler=ObjectFCFSScheduler())
        finish = {}
        _serial_client(env, device, "c0", objects["c0"], finish, think_time=0.5)
        env.run()
        assert device.stats.group_switches == 1


class TestDeviceConfigurations:
    def test_zero_switch_latency(self):
        env, device, objects = _setup(
            num_clients=2,
            layout_policy=AllInOneLayout(),
            config=DeviceConfig(group_switch_seconds=0.0, transfer_seconds_per_object=1.0),
        )
        finish = {}
        for client, keys in objects.items():
            _batch_client(env, device, client, keys, finish)
        env.run()
        # A single group and no switch latency: total time = serialized transfers.
        assert max(finish.values()) == pytest.approx(8.0)

    def test_concurrent_transfers_overlap_across_clients(self):
        env, device, objects = _setup(
            num_clients=2,
            layout_policy=AllInOneLayout(),
            config=DeviceConfig(
                group_switch_seconds=0.0,
                transfer_seconds_per_object=1.0,
                concurrent_transfers=True,
            ),
        )
        finish = {}
        for client, keys in objects.items():
            _batch_client(env, device, client, keys, finish)
        env.run()
        # Each client's four transfers are serialized per client but overlap
        # across clients, so everyone finishes at ~4s instead of ~8s.
        assert max(finish.values()) == pytest.approx(4.0)

    def test_switch_waits_for_concurrent_deliveries_in_flight(self):
        """The guard in ``_run``: with concurrent transfers the service set is
        dispatched in no simulated time, so the next decision (group 1) is
        made at t = 10 while c0's three deliveries are still in flight until
        t = 13 — the switch must wait for them, and a GET arriving during
        that wait is registered when it ends, not after the switch."""
        env, device, objects = _setup(
            num_clients=2,
            config=DeviceConfig(
                group_switch_seconds=10.0,
                transfer_seconds_per_object=1.0,
                concurrent_transfers=True,
            ),
        )
        finish = {}
        _batch_client(env, device, "c0", objects["c0"][:3], finish)
        _batch_client(env, device, "c1", objects["c1"], finish)
        seen_mid_switch = {}

        def late_request(env):
            yield env.timeout(11.5)  # group 0 still loaded, two deliveries to go
            device.get(objects["c0"][3], "c0", "c0:q:1")
            assert device.stats.requests_received == 7  # waiting in the inbox
            yield env.timeout(2.5)  # t = 14: the switch to group 1 is under way
            seen_mid_switch["received"] = device.stats.requests_received
            seen_mid_switch["pending_on_0"] = device.scheduler.pending_count(0)

        env.process(late_request(env))
        env.run()

        switches = [i for i in device.busy_intervals if i.kind == "switch"]
        transfers = [i for i in device.busy_intervals if i.kind == "transfer"]
        assert [(s.start, s.end, s.group_id) for s in switches] == [
            (0.0, 10.0, 0),
            (13.0, 23.0, 1),  # decided at t = 10, held until the last delivery
            (27.0, 37.0, 0),
        ]
        assert [(t.start, t.end) for t in transfers if t.group_id == 0][:3] == [
            (10.0, 11.0),
            (11.0, 12.0),
            (12.0, 13.0),
        ]
        for switch, left in zip(switches[1:], switches):
            leaving = [t.end for t in transfers if t.group_id == left.group_id and t.start < switch.start]
            assert leaving and max(leaving) <= switch.start
        assert seen_mid_switch == {"received": 8, "pending_on_0": 1}
        assert device.stats.objects_served == 8
        assert (device._inflight, device._drained_event) == (0, None)

    def test_busy_intervals_cover_switches_and_transfers(self):
        env, device, objects = _setup(num_clients=2)
        finish = {}
        for client, keys in objects.items():
            _batch_client(env, device, client, keys, finish)
        env.run()
        kinds = {interval.kind for interval in device.busy_intervals}
        assert kinds == {"switch", "transfer"}
        switch_time = sum(i.duration for i in device.busy_intervals if i.kind == "switch")
        transfer_time = sum(i.duration for i in device.busy_intervals if i.kind == "transfer")
        assert switch_time == pytest.approx(10.0 * device.stats.group_switches)
        assert transfer_time == pytest.approx(1.0 * device.stats.objects_served)

    def test_busy_interval_record_contract(self):
        """What the ledger's probes, the exporter and the tests lean on: one
        immutable record, built positionally or by keyword, in a plain list
        the device appends to — the transfer written on the hot path through
        ``tuple.__new__`` included."""
        positional = BusyInterval(1.0, 3.5, "switch", 2)
        assert positional == BusyInterval(start=1.0, end=3.5, kind="switch", group_id=2)
        assert (positional.client_id, positional.query_id, positional.object_key) == (
            None,
            None,
            None,
        )
        assert positional.duration == 2.5
        with pytest.raises(AttributeError):
            positional.end = 4.0

        env, device, objects = _setup(num_clients=1)
        _batch_client(env, device, "c0", objects["c0"], {})
        env.run()
        log = device.busy_intervals
        assert type(log) is list
        assert all(type(interval) is BusyInterval for interval in log)
        assert log[1] == BusyInterval(
            10.0, 11.0, "transfer", 0, client_id="c0", query_id="c0:q:0", object_key=objects["c0"][0]
        )
        log[0] = positional
        assert device.busy_intervals[0] is positional

    def test_unknown_object_rejected_on_submit(self):
        env, device, _objects = _setup(num_clients=1)
        with pytest.raises(StorageError):
            device.get("c0/unknown.0", "c0", "q")

    def test_negative_config_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceConfig(group_switch_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            DeviceConfig(transfer_seconds_per_object=-0.1)
        with pytest.raises(ConfigurationError):
            DeviceConfig(group_switch_seconds=float("nan"))
        with pytest.raises(ConfigurationError):
            DeviceConfig(transfer_seconds_per_object=float("inf"))
