"""The fleet controller's own properties, on bare fleets of a few objects.

* A profile-weighted ring follows the serving roster's speed factors across
  a join; a uniform one keeps no weights, whatever the profiles say.
* A device the placement gives nothing has no device object: it fails, and
  its repair epoch runs, without one, and without being given one.
* The rebalance tick names why it did not act: a device with no completed
  request (``insufficient-samples``) or target weights within
  ``MIN_WEIGHT_DELTA`` of the ring's (``weights-stable``).
* What the controller keeps between epochs is kept as long as an epoch can
  still open, and no longer: the replica census and the key-hash column.
* A membership event at 0 s opens its epoch without a kernel event.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

import pytest
from drain import drain

from repro.csd import ClientsPerGroupLayout, DeviceConfig, ObjectStore, SlackFCFSScheduler
from repro.csd.request import GetRequest
from repro.exceptions import SimulationError
from repro.fleet.controller import FleetController
from repro.fleet.placement import normalize_weights
from repro.fleet.router import FleetRouter
from repro.fleet.spec import (
    MIN_WEIGHT_DELTA,
    DeviceFailure,
    DeviceJoin,
    DeviceProfile,
    FleetSpec,
    RebalancePolicy,
)
from repro.obs import MetricsRegistry
from repro.sim import Environment


def build_router(fleet_spec: FleetSpec, client_objects: Dict[str, List[str]]) -> FleetRouter:
    """A bare fleet over ``client_objects``, each stored as its upper-cased key."""
    store = ObjectStore()
    for client, keys in client_objects.items():
        store.put_segments(
            client, [key.partition("/")[2] for key in keys], [key.upper() for key in keys]
        )
    return FleetRouter(
        env=Environment(),
        object_store=store,
        client_objects=client_objects,
        fleet_spec=fleet_spec,
        layout_policy=ClientsPerGroupLayout(1),
        scheduler_factory=lambda: SlackFCFSScheduler(2),
        device_config=DeviceConfig(group_switch_seconds=3.0, transfer_seconds_per_object=1.0),
        metrics=MetricsRegistry(),
    )


def objects(count: int) -> Dict[str, List[str]]:
    return {client: [f"{client}/obj.{index}" for index in range(count)] for client in ("t0", "t1")}


def submit(router: FleetRouter, keys: Sequence[str]) -> None:
    router.submit_many(
        [GetRequest(key, key.partition("/")[0], f"{key[:2]}:q:0", lambda _request: None)
         for key in keys]
    )


PROFILES = (
    DeviceProfile(device=0, transfer_seconds=0.5),
    DeviceProfile(device=1, transfer_seconds=2.0),
    DeviceProfile(device=3, transfer_seconds=0.25),
)


@pytest.mark.parametrize("weighting", ["profile", "uniform"])
def test_the_ring_weights_follow_the_profiles_across_a_join_only_when_profiled(weighting):
    spec = FleetSpec(
        devices=3, profiles=PROFILES, weighting=weighting,
        events=(DeviceJoin(device=3, at_seconds=1.0),),
    )
    router = build_router(spec, objects(12))
    controller = FleetController(router)
    drain(router.env)
    membership = router.membership
    expected = {}
    if weighting == "profile":
        expected = normalize_weights(
            {member.device_id: membership.profile_weight(member) for member in router.members}
        )
    assert router.policy.weights == expected
    assert [member.weight for member in router.members] == [
        expected.get(member.device_id, 1.0) for member in router.members
    ]
    assert controller.placement_vnode_counts == router.policy.vnode_counts(
        membership.serving_ids()
    )


def test_a_device_that_holds_nothing_fails_and_is_repaired_around_without_a_device():
    # One object, R = 2 over three devices: exactly one device holds nothing.
    client_objects = {"t0": ["t0/obj.0"]}
    empty = [member.index for member in build_router(
        FleetSpec(devices=3, replication=2), client_objects).members if member.device is None]
    assert len(empty) == 1
    spec = FleetSpec(
        devices=3, replication=2, failures=(DeviceFailure(device=empty[0], at_seconds=1.0),)
    )
    router = build_router(spec, client_objects)
    controller = FleetController(router)
    submit(router, ["t0/obj.0"])
    drain(router.env)
    dead = router.members[empty[0]]
    assert not dead.alive and dead.device is None
    [plan] = controller.migration_plans
    assert (plan.kind, plan.moves) == ("repair", [])
    assert (router.stats.failed_over, router.stats.dropped_migration_jobs) == (0, 0)
    assert [entry["under_replicated_after_plan"] for entry in controller.replication_log] == [0]


def test_the_rebalance_tick_names_why_it_does_not_reweight():
    spec = FleetSpec(devices=2, rebalance=RebalancePolicy(interval_seconds=1000.0))
    router = build_router(spec, objects(6))
    controller = FleetController(router)
    busy, idle = router.members
    # Only the first device serves: the window is as unbalanced as it gets,
    # and the idle device has no observed rate.
    submit(router, [key for key, replicas in router.placement.items() if replicas[0] == "csd0"])
    router.env.run(router.env.timeout(100.0))
    assert busy.ewma.count > 0 == idle.ewma.count
    controller._rebalance_tick(0.0, router.env.now)
    # The same rate on both: the target weights are the ring's.
    idle.ewma.observe(busy.ewma.value)
    controller._rebalance_tick(0.0, router.env.now)
    # The idle device answering ten times as fast earns ten times the share.
    idle.ewma.observe(busy.ewma.value / 10)
    controller._rebalance_tick(0.0, router.env.now)
    log = controller.rebalance_log
    assert [entry["outcome"] for entry in log] == [
        "insufficient-samples", "weights-stable", "reweighted"
    ]
    assert [entry["triggered"] for entry in log] == [False, False, True]
    assert log[1]["max_weight_delta"] < MIN_WEIGHT_DELTA <= log[2]["max_weight_delta"]
    assert [plan.kind for plan in controller.migration_plans] == ["reweight"]


def test_a_rebalancer_tick_left_alone_ends_the_run():
    """Without sessions to name (no service ran it), the tick still ends a
    run that nothing else can move, at its first instant alone."""
    spec = FleetSpec(devices=2, rebalance=RebalancePolicy(interval_seconds=1000.0))
    router = build_router(spec, objects(6))
    FleetController(router)
    submit(router, ["t0/obj.0"])
    env = router.env
    with pytest.raises(
        SimulationError, match=r"left to run at t = 1000.0; .* never finish: \[\]$"
    ):
        env.run(env.event())


def test_the_census_and_the_hash_column_live_while_an_epoch_can_open():
    spec = FleetSpec(
        devices=3, replication=2,
        failures=(DeviceFailure(device=0, at_seconds=1.0),),
        events=(DeviceJoin(device=3, at_seconds=2.0),),
    )
    router = build_router(spec, objects(12))
    controller = FleetController(router)
    env = router.env
    env.run(env.timeout(1.5))
    assert controller._census is not None
    census = controller.replica_census
    assert controller.replica_census is census
    key_hashes = controller._key_hashes
    assert key_hashes == [key_hash for key_hash, _key in router.sorted_key_hashes]
    drain(env)
    assert controller._key_hashes is key_hashes
    # The last declared epoch has opened and no rebalancer runs.
    assert controller._census is None
    assert controller.replica_census == Counter(router.placement.values())


def test_a_periodic_rebalancer_keeps_the_census_until_the_run_is_released():
    spec = FleetSpec(
        devices=3, replication=2,
        failures=(DeviceFailure(device=0, at_seconds=1.0),),
        rebalance=RebalancePolicy(interval_seconds=1000.0),
    )
    router = build_router(spec, objects(12))
    controller = FleetController(router)
    router.env.run(router.env.timeout(10.0))
    assert controller._census is not None
    controller.release()
    assert controller._census is None


def test_a_membership_event_at_zero_seconds_waits_for_no_kernel_event():
    def dispatched(at_seconds: float) -> int:
        spec = FleetSpec(devices=2, events=(DeviceJoin(device=2, at_seconds=at_seconds),))
        router = build_router(spec, objects(12))
        controller = FleetController(router)
        drain(router.env)
        return router.env.dispatched

    # The later join waits on one timeout; everything else is the same.
    assert dispatched(0.0) == dispatched(1e-9) - 1
