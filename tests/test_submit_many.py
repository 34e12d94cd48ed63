"""Vector issuance: ``submit_many`` is ``submit`` repeated, and nothing leaks.

* ``Store.put_many`` ≡ ``put`` once per item, with 0, 1 and several waiting
  getters.
* ``FleetRouter.submit_many(batch)`` ≡ the same requests through sequential
  ``submit`` on a twin fleet: same replica choices, inbox order, relative
  request ids, counters, and the same events in the same order afterwards —
  for every replica policy, R in {1, 2, 3}, dead primaries, batches spanning
  one to all devices, the empty batch.
* A rejected batch leaves router, member and device counters untouched.
* A completed request and its completion die on reference counts alone.
* Failover and hand-off re-submit the drained queue as one batch and still
  deliver every request exactly once.
"""

from __future__ import annotations

import gc
import weakref
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.csd import ClientsPerGroupLayout, DeviceConfig, ObjectStore, SlackFCFSScheduler
from repro.csd.request import GetRequest
from repro.exceptions import FleetError, StorageError
from repro.fleet.controller import FleetController
from repro.fleet.router import FleetRouter
from repro.fleet.spec import KNOWN_REPLICA_POLICIES, DeviceFailure, DeviceLeave, FleetSpec
from repro.sim import Environment, Event, Store

CLIENTS = ("t0", "t1", "t2")
KEYS_PER_CLIENT = 8


def _client_objects() -> Dict[str, List[str]]:
    return {
        client: [f"{client}/obj.{index}" for index in range(KEYS_PER_CLIENT)]
        for client in CLIENTS
    }


ALL_KEYS: Tuple[str, ...] = tuple(key for keys in _client_objects().values() for key in keys)


def build_router(fleet_spec: FleetSpec) -> FleetRouter:
    """A bare fleet over 24 one-byte objects: no service, no clients."""
    store = ObjectStore()
    for key in ALL_KEYS:
        store.put(key, key.upper())
    return FleetRouter(
        env=Environment(),
        object_store=store,
        client_objects=_client_objects(),
        fleet_spec=fleet_spec,
        layout_policy=ClientsPerGroupLayout(1),
        scheduler_factory=lambda: SlackFCFSScheduler(2),
        device_config=DeviceConfig(group_switch_seconds=3.0, transfer_seconds_per_object=1.0),
    )


def build_requests(router: FleetRouter, keys: Sequence[str], log: List[tuple]) -> List[GetRequest]:
    """One request per key; every completion appends to ``log`` when it fires."""
    requests = []
    for key in keys:
        completion = router.env.event(name=key)
        completion.add_callback(
            lambda event, key=key: log.append((router.env.now, key, event.value))
        )
        requests.append(GetRequest(key, key.partition("/")[0], f"{key[:2]}:q:0", completion))
    return requests


# --------------------------------------------------------------------------- #
# Store.put_many
# --------------------------------------------------------------------------- #
def _store_outcome(getters: int, items: Sequence[int], batched: bool) -> tuple:
    env = Environment()
    store = Store(env)
    fired: List[Tuple[int, int]] = []
    for index in range(getters):
        store.get().add_callback(lambda event, index=index: fired.append((index, event.value)))
    if batched:
        store.put_many(items)
    else:
        for item in items:
            store.put(item)
    queued_before_run = list(store.queued)
    env.run()
    return queued_before_run, fired, len(store._getters), env.dispatched


@given(getters=st.integers(0, 4), items=st.lists(st.integers(), max_size=6))
def test_put_many_is_put_once_per_item(getters, items):
    assert _store_outcome(getters, items, True) == _store_outcome(getters, items, False)


def test_put_many_wakes_getters_oldest_first_and_queues_the_rest():
    queued, fired, waiting, _ = _store_outcome(2, [10, 11, 12, 13], True)
    assert fired == [(0, 10), (1, 11)] and queued == [12, 13] and waiting == 0
    queued, fired, waiting, _ = _store_outcome(3, [10], True)
    assert fired == [(0, 10)] and queued == [] and waiting == 2


def test_put_many_accepts_a_one_shot_iterator():
    env = Environment()
    store = Store(env)
    store.get()
    store.put_many(iter([1, 2, 3]))
    assert list(store.queued) == [2, 3]
    assert store.drain() == [2, 3] and store.drain() == [] and len(store) == 0


# --------------------------------------------------------------------------- #
# submit_many ≡ sequential submit
# --------------------------------------------------------------------------- #
def _fleet_snapshot(router: FleetRouter, requests: Sequence[GetRequest]) -> dict:
    base = requests[0].request_id if requests else 0
    return {
        "choices": [
            (request.object_key, request.owner.device_id, request.request_id - base)
            for request in requests
        ],
        "inboxes": {
            member.device_id: [item.object_key for item in member.device.inbox.queued]
            for member in router.members
            if member.device is not None
        },
        "members": [
            (member.device_id, member.outstanding, member.requests_routed)
            for member in router.members
        ],
        "router": (
            router.stats.requests_routed,
            router.stats.choice_primary,
            router.stats.choice_diverted,
            len(router._in_flight),
        ),
    }


def _after_run(router: FleetRouter) -> dict:
    return {
        "dispatched": router.env.dispatched,
        "now": router.env.now,
        "devices": [
            (
                member.device_id,
                member.outstanding,
                member.ewma.count,
                member.latency_sum,
                member.device.stats.requests_received,
                member.device.stats.objects_served,
                dict(member.device.stats.objects_per_client),
                [(interval.start, interval.end, interval.kind, interval.object_key)
                 for interval in member.device.busy_intervals],
            )
            for member in router.members
            if member.device is not None
        ],
        "in_flight": len(router._in_flight),
    }


@settings(max_examples=60)
@given(
    policy=st.sampled_from(sorted(KNOWN_REPLICA_POLICIES)),
    devices=st.integers(1, 5),
    replication=st.integers(1, 3),
    dead=st.sets(st.integers(0, 4), max_size=2),
    loads=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    latencies=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=5, max_size=5),
    batches=st.lists(
        st.lists(st.integers(0, len(ALL_KEYS) - 1), max_size=12), min_size=1, max_size=3
    ),
    warm=st.booleans(),
    run_between=st.sampled_from([0.0, 2.0, 7.5]),
)
def test_submit_many_is_submit_once_per_request(
    policy, devices, replication, dead, loads, latencies, batches, warm, run_between
):
    replication = min(replication, devices)
    # Never kill every replica of a key: at most R - 1 devices die.
    dead = sorted(index for index in dead if index < devices)[: replication - 1]
    spec = FleetSpec(devices=devices, replication=replication, replica_policy=policy, repair=False)

    def drive(batched: bool) -> list:
        router = build_router(spec)
        if warm:
            router.env.run()  # every device now blocks on its inbox getter
        for member in router.members:
            member.alive = member.index not in dead
            member.outstanding = loads[member.index]
            if latencies[member.index]:
                member.ewma.observe(latencies[member.index])
        completions: List[tuple] = []
        history = []
        for batch in batches:
            requests = build_requests(router, [ALL_KEYS[index] for index in batch], completions)
            if batched:
                router.submit_many(requests)
            else:
                for request in requests:
                    assert router.submit(request) is request
            history.append(_fleet_snapshot(router, requests))
            if run_between:
                router.env.run(until=router.env.now + run_between)
        # Baseline loads were invented, not routed: take them back so the
        # completions can drain ``outstanding`` to zero.
        for member in router.members:
            member.outstanding -= loads[member.index]
        router.env.run()
        history.append(_after_run(router))
        history.append(completions)
        return history

    batched, sequential = drive(True), drive(False)
    assert batched == sequential
    delivered = batched[-1]
    assert len(delivered) == sum(len(batch) for batch in batches)
    assert batched[-2]["in_flight"] == 0


def test_empty_batch_is_a_no_op():
    router = build_router(FleetSpec(devices=3, replication=2))
    router.submit_many([])
    assert router.stats.requests_routed == 0 and not router._in_flight
    assert all(len(member.device.inbox) == 0 for member in router.members)
    before = router.env.dispatched
    router.env.run()
    # Only the device bootstraps ran: an empty batch scheduled nothing.
    twin = build_router(FleetSpec(devices=3, replication=2))
    twin.env.run()
    assert router.env.dispatched - before == twin.env.dispatched


def test_a_batch_can_span_every_device_and_slices_keep_request_order():
    router = build_router(FleetSpec(devices=4, replication=1))
    requests = build_requests(router, ALL_KEYS, [])
    router.submit_many(requests)
    touched = [member for member in router.members if len(member.device.inbox)]
    assert len(touched) == 4
    for member in touched:
        inbox = [item.request_id for item in member.device.inbox.queued]
        assert inbox == sorted(inbox)
        assert all(item.owner is member for item in member.device.inbox.queued)


# --------------------------------------------------------------------------- #
# Count after validate
# --------------------------------------------------------------------------- #
def _counters(router: FleetRouter) -> tuple:
    return (
        router.stats.requests_routed,
        router.stats.choice_primary,
        router.stats.choice_diverted,
        len(router._in_flight),
        [(member.outstanding, member.requests_routed) for member in router.members],
        [len(member.device.inbox) for member in router.members],
        [member.device.stats.requests_received for member in router.members],
    )


@pytest.mark.parametrize("policy", sorted(KNOWN_REPLICA_POLICIES))
def test_rejected_batch_leaves_every_counter_untouched(policy):
    router = build_router(FleetSpec(devices=3, replication=2, replica_policy=policy))
    before = _counters(router)
    # Placed by the fleet, missing from the object store: only the owning
    # device's validation can tell — after the replica was already chosen.
    router.object_store.delete("t1/obj.3")
    requests = build_requests(router, ["t0/obj.0", "t1/obj.1", "t1/obj.3", "t2/obj.5"], [])
    with pytest.raises(StorageError, match="unknown object 't1/obj.3'"):
        router.submit_many(requests)
    assert _counters(router) == before
    assert all(request.owner is None and request.routed_at is None for request in requests)
    assert all(not request.completion.callbacks[1:] for request in requests)
    with pytest.raises(StorageError):
        router.submit(requests[2])
    with pytest.raises(FleetError, match="not placed on any device"):
        router.submit_many(build_requests(router, ["t0/obj.1", "nobody/nothing.0"], []))
    assert _counters(router) == before
    # The good requests of the rejected batch are still submittable.
    router.submit_many([requests[0], requests[1], requests[3]])
    router.env.run()
    assert router.stats.requests_routed == 3
    assert [member.outstanding for member in router.members] == [0, 0, 0]


def test_device_rejects_a_batch_before_anything_moves():
    router = build_router(FleetSpec(devices=1, replication=1))
    device = router.members[0].device
    good, bad = build_requests(router, ["t0/obj.0", "t0/obj.1"], [])
    bad.object_key = "t0/elsewhere.9"
    with pytest.raises(StorageError):
        device.submit_many([good, bad])
    assert len(device.inbox) == 0 and good.issue_time == 0.0
    router.object_store.put("t0/elsewhere.9", b"stored but placed on no disk group")
    with pytest.raises(StorageError, match="not placed on any disk group"):
        device.submit_many([good, bad])
    assert len(device.inbox) == 0


# --------------------------------------------------------------------------- #
# Ownership: refcounts alone
# --------------------------------------------------------------------------- #
class _WeakRequest(GetRequest):
    """``GetRequest`` is slotted; a subclass adds the ``__weakref__`` slot."""


class _WeakEvent(Event):
    """Likewise for the completion."""


def test_completed_request_and_completion_die_without_the_collector():
    router = build_router(FleetSpec(devices=2, replication=2, replica_policy="least-loaded"))
    payloads = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        probes = []
        requests = []
        for key in ALL_KEYS[:6]:
            completion = _WeakEvent(router.env, key)
            completion.add_callback(lambda event: payloads.append(event.value))
            request = _WeakRequest(key, "t0", "t0:q:0", completion)
            probes.append((weakref.ref(request), weakref.ref(completion)))
            requests.append(request)
            del request, completion
        router.submit_many(requests)
        del requests
        # In flight, the fleet owns them.
        assert all(request() is not None and done() is not None for request, done in probes)
        router.env.run()
        assert len(payloads) == 6
        assert [(request(), done()) for request, done in probes] == [(None, None)] * 6
        assert not router._in_flight
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------- #
# Failover / hand-off: the drained queue goes back as one batch
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "spec, counter",
    [
        (
            FleetSpec(
                devices=3,
                replication=2,
                failures=(DeviceFailure(device=0, at_seconds=4.5),),
                repair=False,
            ),
            "failed_over",
        ),
        (
            FleetSpec(devices=3, replication=2, events=(DeviceLeave(device=1, at_seconds=4.5),)),
            "handed_off",
        ),
    ],
)
def test_drained_requests_are_delivered_exactly_once(spec, counter):
    router = build_router(spec)
    controller = FleetController(router)
    delivered: List[tuple] = []
    requests = build_requests(router, ALL_KEYS, delivered)
    router.submit_many(requests)
    router.env.run()
    controller.raise_admin_failure()
    moved = getattr(router.stats, counter)
    assert moved > 0
    assert sorted(key for _at, key, _payload in delivered) == sorted(ALL_KEYS)
    assert all(payload == key.upper() for _at, key, payload in delivered)
    assert router.stats.requests_routed == len(ALL_KEYS) + moved
    assert sum(member.device.stats.objects_served for member in router.members) == len(ALL_KEYS)
    assert [member.outstanding for member in router.members] == [0, 0, 0]
    assert not router._in_flight and router.pending_total() == 0
    gone = router.members[0 if counter == "failed_over" else 1]
    assert all(request.owner is None for request in requests)
    assert gone.device.scheduler.pending_count() == 0
