"""Integration tests for the simulated Cold Storage Device."""

import pytest
from drain import drain

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
from repro.csd.request import GetRequest
from repro.exceptions import ConfigurationError, SimulationError, StorageError
from repro.obs import MetricsRegistry
from repro.sim import Environment, Store


def _setup(num_clients=2, objects_per_client=4, layout_policy=None, scheduler=None, config=None):
    env = Environment()
    store = ObjectStore()
    client_objects = {}
    for c in range(num_clients):
        client = f"c{c}"
        client_objects[client] = store.put_segments(
            client,
            [f"t.{i}" for i in range(objects_per_client)],
            [f"payload-{client}-{i}" for i in range(objects_per_client)],
        )
    layout = (layout_policy or ClientsPerGroupLayout(1)).build(client_objects)
    device = ColdStorageDevice(
        env,
        store,
        layout,
        scheduler or RankBasedScheduler(),
        config or DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=1.0),
        MetricsRegistry(),
    )
    return env, device, client_objects


def _get(device, key, client, query_id, served=None):
    """Submit one GET (a batch of one) whose delivery puts the served request
    into the ``served`` store, and return it."""
    request = GetRequest(key, client, query_id, (served or Store(device.env)).put)
    device.submit_many((request,))
    return request


def _batch_client(env, device, client, keys, finish_times):
    def process(env):
        served = Store(env)
        for key in keys:
            _get(device, key, client, f"{client}:q:0", served)
        for _key in keys:
            yield served
        finish_times[client] = env.now

    return env.process(process(env))


def _serial_client(env, device, client, keys, finish_times, think_time=0.0):
    def process(env):
        served = Store(env)
        for key in keys:
            _get(device, key, client, f"{client}:q:0", served)
            yield served
            if think_time:
                yield think_time
        finish_times[client] = env.now

    return env.process(process(env))


class TestBatchedAccess:
    def test_single_client_single_switch(self):
        env, device, objects = _setup(num_clients=1)
        finish = {}
        _batch_client(env, device, "c0", objects["c0"], finish)
        drain(env)
        assert device.stats.group_switches == 1
        assert device.stats.objects_served == 4
        assert finish["c0"] == pytest.approx(10 + 4 * 1.0)

    def test_batched_clients_get_one_switch_per_group(self):
        env, device, objects = _setup(num_clients=3)
        finish = {}
        for client, keys in objects.items():
            _batch_client(env, device, client, keys, finish)
        drain(env)
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
            served = Store(env)
            request = _get(device, objects["c0"][2], "c0", "q", served)
            assert (yield served) is request
            results["payload"] = request.value

        env.process(process(env))
        drain(env)
        assert results["payload"] == "payload-c0-2"

    def test_a_get_served_twice_is_refused_by_its_key(self):
        env, device, objects = _setup(num_clients=1)
        served = Store(env)
        request = _get(device, objects["c0"][1], "c0", "q", served)
        drain(env)
        assert list(served.queued) == [request] and request.value == "payload-c0-1"
        device.submit_many((request,))
        drain(env)
        error = device.process.exception
        assert isinstance(error, SimulationError)
        assert str(error) == "GET 'c0/t.1' was served twice"
        assert list(served.queued) == [request] and device.stats.objects_served == 1


class TestPullBasedAccess:
    def test_interleaved_pull_clients_pay_switch_per_object(self):
        # Two pull-based clients on different groups under object-FCFS: every
        # object access needs a group switch (the paper's pathological case).
        env, device, objects = _setup(num_clients=2, scheduler=ObjectFCFSScheduler())
        finish = {}
        for client, keys in objects.items():
            _serial_client(env, device, client, keys, finish)
        drain(env)
        assert device.stats.group_switches >= 2 * 4 - 1
        assert max(finish.values()) >= 4 * 2 * 10.0

    def test_single_pull_client_needs_single_switch(self):
        env, device, objects = _setup(num_clients=1, scheduler=ObjectFCFSScheduler())
        finish = {}
        _serial_client(env, device, "c0", objects["c0"], finish, think_time=0.5)
        drain(env)
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
        drain(env)
        # A single group and no switch latency: total time = serialized transfers.
        assert max(finish.values()) == pytest.approx(8.0)

    def test_busy_intervals_cover_switches_and_transfers(self):
        env, device, objects = _setup(num_clients=2)
        finish = {}
        for client, keys in objects.items():
            _batch_client(env, device, client, keys, finish)
        drain(env)
        kinds = {interval.kind for interval in device.busy_intervals}
        assert kinds == {"switch", "transfer"}
        switch_time = sum(i.end - i.start for i in device.busy_intervals if i.kind == "switch")
        transfer_time = sum(i.end - i.start for i in device.busy_intervals if i.kind == "transfer")
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
        assert positional.end - positional.start == 2.5
        with pytest.raises(AttributeError):
            positional.end = 4.0

        env, device, objects = _setup(num_clients=1)
        _batch_client(env, device, "c0", objects["c0"], {})
        drain(env)
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
            _get(device, "c0/unknown.0", "c0", "q")

    def test_negative_config_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceConfig(group_switch_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            DeviceConfig(transfer_seconds_per_object=-0.1)
        with pytest.raises(ConfigurationError):
            DeviceConfig(group_switch_seconds=float("nan"))
        with pytest.raises(ConfigurationError):
            DeviceConfig(transfer_seconds_per_object=float("inf"))
