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
from repro.csd.device import BusyInterval, DeviceStats, MigrationTokenBucket
from repro.csd.request import GetRequest, MigrationJob, migration_fields
from repro.exceptions import ConfigurationError, SimulationError, StorageError
from repro.obs import MetricsRegistry, Tracer
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
        with pytest.raises(SimulationError) as caught:
            drain(env)
        assert str(caught.value) == "GET 'c0/t.1' was served twice"
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


class TestFailStop:
    def test_a_drain_mid_service_set_ends_the_set_and_decides_again(self):
        """``drain_pending`` while the device serves a service set: the object
        in transfer completes, the rest of the set is gone, and the device
        decides again — it serves a later GET as soon as it arrives."""
        env, device, objects = _setup(
            num_clients=1,
            config=DeviceConfig(group_switch_seconds=0.0, transfer_seconds_per_object=1.0),
        )
        first, second, third, fourth = objects["c0"]
        requests = [_get(device, key, "c0", "q0") for key in (first, second, third)]
        drained = []

        def fail_and_resubmit(env):
            yield 0.5
            drained.extend(device.drain_pending())
            yield 2.5
            _get(device, fourth, "c0", "q1")

        env.process(fail_and_resubmit(env))
        env.run(env.timeout(10.0))
        assert drained == requests[1:]
        transfers = [
            (interval.start, interval.end, interval.object_key)
            for interval in device.busy_intervals
            if interval.kind == "transfer"
        ]
        assert transfers == [(0.0, 1.0, first), (3.0, 4.0, fourth)]
        assert device.stats.objects_served == 2


class TestMigrationQueues:
    def test_unfinished_migration_jobs_count_both_queues(self):
        """Accepted migration I/O is counted whether the device has filed it
        (its admin queue) or it still sits in the inbox beside GETs."""
        _env, device, objects = _setup(num_clients=1)
        key = objects["c0"][0]
        fields = migration_fields("read", 1.0, 1, "rebalance", lambda *_: None)
        device.submit_migrations([MigrationJob(key, *fields) for _ in range(2)])
        assert device.drain_pending() == []  # files the inbox: both jobs set aside
        device.submit_migrations([MigrationJob(key, *fields)])
        _get(device, key, "c0", "q0")
        assert len(device.inbox.queued) == 2
        assert device.pending_migration_jobs() == 3
        assert len(device.drain_migration_jobs()) == 3
        assert device.pending_migration_jobs() == 0
        assert len(device.inbox.queued) == 0

    def test_a_job_waits_on_migration_work_alone_without_interfering(self):
        """Only foreground GETs in the inbox make a job *interfere*: a later
        epoch's migration job queued behind it does not."""
        env, device, objects = _setup(num_clients=1)
        key = objects["c0"][0]
        booked = []
        fields = migration_fields(
            "read", 1.0, 1, "rebalance", lambda job, start, end, interfered: booked.append(interfered)
        )

        def more_work(env):
            yield 0.5
            device.submit_migrations([MigrationJob(key, *fields)])

        device.submit_migrations([MigrationJob(key, *fields)])
        env.process(more_work(env))
        env.run(env.timeout(5.0))
        assert booked == [False, False]
        assert device.stats.migration_interference_seconds == 0.0


class TestPublishedState:
    def test_counters_and_scheduler_are_published_under_the_device_name(self):
        env, device, objects = _setup(num_clients=1)
        registry = MetricsRegistry()
        named = ColdStorageDevice(
            env, device.object_store, device.layout, RankBasedScheduler(), DeviceConfig(),
            registry, name="csd7",
        )
        _get(named, objects["c0"][0], "c0", "q0")
        env.run(env.timeout(100.0))
        assert registry.get("device.csd7.objects_served") == 1
        assert registry.get("device.csd7.requests_received") == 1
        assert registry.get("device.csd7.scheduler.num_switches") == 1

    def test_a_traced_device_records_each_get_entering_its_inbox(self):
        env, device, objects = _setup(num_clients=1)
        tracer = Tracer(env)
        traced = ColdStorageDevice(
            env, device.object_store, device.layout, RankBasedScheduler(), DeviceConfig(),
            MetricsRegistry(), name="csd3", tracer=tracer,
        )
        first, second = objects["c0"][:2]
        traced.submit_many(
            [GetRequest(key, "c0", "q0", Store(env).put) for key in (first, second)]
        )
        assert tracer.io_submissions == [(0.0, "q0", first, "csd3"), (0.0, "q0", second, "csd3")]

    def test_the_bucket_and_the_counters_are_slotted(self):
        assert not hasattr(MigrationTokenBucket(1.0), "__dict__")
        assert not hasattr(DeviceStats(), "__dict__")


class TestNoIdleWork:
    def test_zero_second_work_takes_no_kernel_event(self):
        """A zero-latency switch, transfer or migration job is no delay at
        all: the device books it without yielding to the kernel."""
        env, device, objects = _setup(
            num_clients=2,
            config=DeviceConfig(group_switch_seconds=0.0, transfer_seconds_per_object=0.0),
        )
        fields = migration_fields("read", 0.0, 1, "rebalance", lambda *_: None)
        device.submit_migrations([MigrationJob(objects["c0"][0], *fields) for _ in range(3)])
        served = Store(env)
        for client in ("c0", "c1"):
            for key in objects[client]:
                _get(device, key, client, f"{client}:q", served)
        env.run(env.timeout(1.0))
        assert device.stats.objects_served == 8 and device.stats.migration_jobs == 3
        # The device's start, its eight deliveries and the timeout: no more.
        assert env.dispatched == 10

    def test_a_switch_with_an_empty_inbox_registers_nothing(self):
        env, device, objects = _setup(num_clients=2)
        sizes = []
        register = device._register
        device._register = lambda items: (sizes.append(len(items)), register(items))
        finish_times = {}
        _serial_client(env, device, "c0", objects["c0"], finish_times)
        _serial_client(env, device, "c1", objects["c1"], finish_times)
        drain(env)
        assert device.stats.group_switches > 2 and 0 not in sizes
