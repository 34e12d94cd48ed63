"""Oracles for the per-shape epoch change.

An epoch change resolves each distinct ``(old, new)`` replica-tuple pair
once, keeps every layout's lowest group per tenant current as keys are
added, and counts replication health per distinct tuple.  Each of these is
held here to the per-key definition it replaced:

* :func:`plan_migration` against :func:`reference_plan`, the per-key loop,
  over placements with R = 1–3 on either side, dead devices, a leaver that
  is a key's last holder and destinations that still hold a key;
* ``DiskGroupLayout.tenant_group_map`` against a scan of the layout, as
  every layout policy builds it and across ``add_objects`` sequences;
* ``FleetController.under_replicated_count`` over a replica-tuple census
  against a per-key count, and the census a churn run keeps against a
  count of its placement after every epoch;
* the ring a long-lived policy builds from its cached per-device points
  against :func:`placement_oracle.brute_force_place` on a fresh policy,
  across joins, leaves and reweights;
* each destination's gained keys, in every plan of two churn runs, against
  canonical key order — what lets plan execution skip sorting them.
"""

from __future__ import annotations

import runpy
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Container, Dict, List, Mapping, Sequence, Tuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from placement_oracle import brute_force_place
from test_epoch_budget import _service as epoch_budget_service

from repro.csd.disk_group import DiskGroupLayout
from repro.csd.layout import (
    AllInOneLayout,
    ClientsPerGroupLayout,
    IncrementalLayout,
    RoundRobinObjectLayout,
    SkewedLayout,
)
from repro.fleet.controller import FleetController
from repro.fleet.migration import KeyMove, KeyTrim, plan_migration
from repro.fleet.placement import ConsistentHashPlacement
from repro.fleet.spec import DeviceFailure, DeviceJoin, DeviceLeave, SetReplication
from repro.exceptions import ScenarioError
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.service import StorageService
from repro.workloads import tpch

DEVICES = tuple(f"csd{index}" for index in range(6))


def reference_plan(
    device_id: str,
    old_placement: Mapping[str, Sequence[str]],
    new_placement: Mapping[str, Sequence[str]],
    alive: Mapping[str, bool],
    resident: Mapping[str, Container[str]],
    changed_keys: Sequence[str],
) -> Tuple[List[KeyMove], List[KeyTrim]]:
    """The per-key planner: every key's trims, candidates and source afresh."""
    moves: List[KeyMove] = []
    trims: List[KeyTrim] = []
    for object_key in changed_keys:
        old_replicas = old_placement[object_key]
        new_replicas = new_placement[object_key]
        for device in old_replicas:
            if device not in new_replicas:
                trims.append(
                    KeyTrim(
                        object_key=object_key,
                        device=device,
                        survivors=sum(
                            1
                            for survivor in new_replicas
                            if alive.get(survivor, True)
                        ),
                    )
                )
        gained = [
            device
            for device in new_replicas
            if device not in old_replicas
            and object_key not in resident.get(device, ())
        ]
        if not gained:
            continue
        source = next(
            (device for device in old_replicas if alive.get(device, True)),
            device_id if device_id in old_replicas else old_replicas[0],
        )
        for dest in gained:
            moves.append(KeyMove(object_key=object_key, source=source, dest=dest))
    return moves, trims


def _replica_sets(replication: int):
    """A few replica tuples of ``replication`` distinct devices: the arcs keys share."""
    return st.lists(
        st.permutations(DEVICES).map(lambda devices: tuple(devices[:replication])),
        min_size=1,
        max_size=5,
    )


@st.composite
def epochs(draw):
    """(device_id, old, new, alive, resident, changed_keys); an empty
    ``alive`` has every device alive, an empty ``resident`` none holding a key."""
    old_replication = draw(st.integers(1, 3))
    new_replication = draw(st.integers(1, 3))
    old_shapes = draw(_replica_sets(old_replication))
    new_shapes = draw(_replica_sets(new_replication))
    keys = [f"t{index % 3}/s.{index}" for index in range(draw(st.integers(1, 24)))]
    old: Dict[str, Tuple[str, ...]] = {}
    new: Dict[str, Tuple[str, ...]] = {}
    for key in keys:
        old[key] = draw(st.sampled_from(old_shapes))
        keep = old_replication == new_replication and draw(st.booleans())
        new[key] = old[key] if keep else draw(st.sampled_from(new_shapes))
    alive = draw(st.just({}) | st.fixed_dictionaries({device: st.booleans() for device in DEVICES}))
    device_id = draw(st.sampled_from(DEVICES + ("fleet",)))
    resident = draw(
        st.dictionaries(st.sampled_from(DEVICES), st.sets(st.sampled_from(keys)), max_size=4)
    )
    changed = [key for key in keys if old[key] != new[key]]
    return device_id, old, new, alive, resident, changed


#: The leaver ``csd0`` is the last holder: ``csd1`` failed earlier.
LEAVER_IS_LAST_HOLDER = (
    "csd0",
    {"a/t.0": ("csd1", "csd0"), "a/t.1": ("csd1", "csd0")},
    {"a/t.0": ("csd2", "csd3"), "a/t.1": ("csd2", "csd3")},
    {"csd0": False, "csd1": False, "csd2": True, "csd3": True},
    {},
    ["a/t.0", "a/t.1"],
)
#: R 1 -> 3 where ``csd2`` still holds ``a/t.1`` from an earlier epoch.
READOPTION_ON_R_UP = (
    "fleet",
    {"a/t.0": ("csd0",), "a/t.1": ("csd0",), "b/t.0": ("csd1",)},
    {
        "a/t.0": ("csd0", "csd2", "csd1"),
        "a/t.1": ("csd0", "csd2", "csd1"),
        "b/t.0": ("csd1", "csd0", "csd2"),
    },
    {},
    {"csd2": {"a/t.1"}, "csd0": {"a/t.0", "a/t.1"}},
    ["a/t.0", "a/t.1", "b/t.0"],
)


@given(epoch=epochs())
@example(epoch=LEAVER_IS_LAST_HOLDER)
@example(epoch=READOPTION_ON_R_UP)
def test_plan_equals_the_per_key_loop(epoch):
    device_id, old, new, alive, resident, changed = epoch
    plan = plan_migration(
        3,
        12.5,
        "leave",
        device_id,
        old,
        new,
        alive,
        resident,
        changed,
        devices_before=len(DEVICES),
        devices_after=len(DEVICES),
        replication=len(next(iter(new.values()))),
    )
    moves, trims = reference_plan(device_id, old, new, alive, resident, changed)
    assert plan.moves == moves
    assert plan.trims == trims
    assert plan.keys_moved == len({move.object_key for move in moves})
    assert plan.keys_trimmed == len({trim.object_key for trim in trims})


def test_the_named_cases_plan_what_they_say():
    device_id, old, new, alive, resident, changed = LEAVER_IS_LAST_HOLDER
    leave = plan_migration(
        1, 0.0, "leave", device_id, old, new, alive, resident, changed,
        devices_before=4, devices_after=3, replication=2,
    )
    assert {move.source for move in leave.moves} == {"csd0"}
    assert [trim.survivors for trim in leave.trims] == [2] * 4
    device_id, old, new, alive, resident, changed = READOPTION_ON_R_UP
    upgrade = plan_migration(
        1, 0.0, "set-replication", device_id, old, new, alive, resident, changed,
        devices_before=3, devices_after=3, replication=3,
    )
    assert ("a/t.1", "csd0", "csd2") not in upgrade.moves
    assert ("a/t.0", "csd0", "csd2") in upgrade.moves
    assert upgrade.trims == []


def _lowest_by_scan(assignment: Mapping[str, int]) -> Dict[str, int]:
    lowest: Dict[str, int] = {}
    for key, group in assignment.items():
        tenant, separator, _rest = key.partition("/")
        if separator:
            lowest[tenant] = min(group, lowest.get(tenant, group))
    return lowest


def _scan(layout: DiskGroupLayout) -> Dict[str, int]:
    return _lowest_by_scan({key: layout.group_of(key) for key in layout.placed_keys})


_OBJECT_KEYS = st.sampled_from(
    [f"{tenant}/t.{index}" for tenant in "abcd" for index in range(6)] + ["bare.0", "bare.1"]
)


@given(
    initial=st.dictionaries(_OBJECT_KEYS, st.integers(0, 5), min_size=1),
    additions=st.lists(st.tuples(_OBJECT_KEYS, st.integers(0, 7)), max_size=20),
)
def test_tenant_group_map_is_a_scan_of_the_layout(initial, additions):
    layout = DiskGroupLayout(initial, _lowest_by_scan(initial))
    for key, group in additions:
        if not layout.has_object(key):
            layout.add_objects([key], [group])
        assert layout.tenant_group_map() == _scan(layout)
    snapshot = layout.tenant_group_map()
    assert snapshot == _scan(layout)
    snapshot["intruder"] = -1  # a fresh dict: the layout's own map is untouched
    assert "intruder" not in layout.tenant_group_map()


@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    width=st.integers(1, 3),
)
def test_every_policy_builds_the_tenant_map_a_scan_finds(sizes, width):
    """Policies give each layout its lowest group per client, which is the
    lowest group per tenant because a client's keys are ``client/…``."""
    clients = {
        f"c{client}": [f"c{client}/t.{index}" for index in range(size)]
        for client, size in enumerate(sizes)
    }
    policies = [
        AllInOneLayout(),
        ClientsPerGroupLayout(width),
        IncrementalLayout(),
        RoundRobinObjectLayout(width),
        SkewedLayout([1] * len(sizes)),
        SkewedLayout([len(sizes)]),
    ]
    for policy in policies:
        layout = policy.build(clients)
        assert layout.tenant_group_map() == _scan(layout), type(policy).__name__


def _controller(serving: Sequence[str], replication: int) -> FleetController:
    """A controller shell: ``under_replicated_count`` reads only the membership
    (every device of :data:`DEVICES` a member, ``serving`` the live ones)."""
    controller = FleetController.__new__(FleetController)
    controller.membership = SimpleNamespace(
        replication=replication,
        serving_ids=lambda: tuple(serving),
        members=[SimpleNamespace(device_id=device) for device in DEVICES],
    )
    return controller


@given(
    shapes=st.lists(
        st.lists(st.sampled_from(DEVICES), min_size=1, max_size=3, unique=True).map(tuple),
        min_size=1,
        max_size=6,
    ),
    picks=st.lists(st.integers(0, 5), max_size=40),
    serving=st.lists(st.sampled_from(DEVICES), min_size=1, unique=True),
    replication=st.integers(1, 3),
)
def test_under_replicated_count_is_a_per_key_count(shapes, picks, serving, replication):
    placement = {f"a/t.{index}": shapes[pick % len(shapes)] for index, pick in enumerate(picks)}
    controller = _controller(serving, replication)
    target = min(replication, len(serving))
    per_key = sum(
        1
        for replicas in placement.values()
        if sum(1 for device in replicas if device in serving) < target
    )
    assert controller.under_replicated_count(Counter(placement.values())) == per_key



#: Membership events a hypothesis timeline may add to the feedback-rebalanced
#: ``fleet-adaptive-rebalance`` fleet (3 devices, R = 2, reweight epochs).
_TIMELINE_EVENTS = st.lists(
    st.one_of(
        st.builds(DeviceJoin, st.just(3), st.floats(20.0, 900.0)),
        st.builds(DeviceLeave, st.integers(0, 2), st.floats(20.0, 900.0)),
        st.builds(SetReplication, st.sampled_from([1, 3]), st.floats(20.0, 900.0)),
    ),
    max_size=3,
    unique_by=lambda event: type(event),
)


@settings(max_examples=15)
@given(
    events=_TIMELINE_EVENTS,
    failure=st.none() | st.builds(DeviceFailure, st.integers(0, 2), st.floats(20.0, 900.0)),
    repair=st.booleans(),
)
@example(events=[], failure=None, repair=True)
def test_the_census_is_a_count_of_the_placement_after_every_epoch(events, failure, repair):
    """Joins, leaves, fail-stops with and without repair, R changes and
    reweights: after every epoch the census the controller keeps from its
    changed keys is the count of the whole placement."""
    base = get_scenario("fleet-adaptive-rebalance")
    try:
        fleet = replace(
            base.fleet,
            events=tuple(sorted(events, key=lambda event: event.at_seconds)),
            failures=() if failure is None else (failure,),
            repair=repair,
        )
    except ScenarioError:
        assume(False)
    counted = []
    record = FleetController._record_replication_health

    def checked(controller, kind, *args, **kwargs):
        census = dict(controller.replica_census)
        assert census == dict(Counter(controller.router.placement.values())), kind
        counted.append(kind)
        return record(controller, kind, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetController, "_record_replication_health", checked)
        service = StorageService(replace(base, fleet=fleet))
        service.run()
    if not events and failure is None:
        assert "reweight" in counted  # the base timeline's own epochs
    assert len(counted) == len(service.controller.replication_log)


_WEIGHT = st.floats(min_value=0.25, max_value=4.0, allow_nan=False, allow_infinity=False)
#: Membership changes a placement policy lives through: a join with the
#: joiner's speed factor, a leave by roster position, a reweight to fresh
#: weights (by device number).
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("join"), _WEIGHT),
        st.tuples(st.just("leave"), st.integers(0, 7)),
        st.tuples(st.just("reweight"), st.lists(_WEIGHT, min_size=8, max_size=8)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60)
@given(
    weighting=st.sampled_from(["uniform", "profile"]),
    steps=_STEPS,
    replication=st.integers(1, 2),
)
def test_the_ring_from_cached_points_places_as_a_fresh_brute_force(
    weighting, steps, replication
):
    """One policy for the whole run, as the controller keeps it: every
    roster's ring is sorted from per-``(device, count)`` points hashed at
    an earlier epoch, and must place each key where a fresh policy's
    brute-force walk over freshly hashed points does."""
    policy = ConsistentHashPlacement(replication=replication)
    population = [f"t{index % 3}/lineitem.{index}" for index in range(120)]
    roster = ["csd0", "csd1", "csd2"]
    # ``profile`` weighs each device by its static speed factor from the
    # start; a uniform fleet is weighted only once a reweight happens.
    speed = {"csd0": 1.0, "csd1": 0.5, "csd2": 2.0}
    weighted = weighting == "profile"
    for kind, argument in [("start", None)] + steps:
        if kind == "join":
            device = f"csd{len(speed)}"
            speed[device] = argument
            roster.append(device)
        elif kind == "leave" and len(roster) > replication:
            del roster[argument % len(roster)]
        elif kind == "reweight":
            speed = {device: argument[int(device[3:]) % 8] for device in speed}
            weighted = True
        weights = {device: speed[device] for device in roster} if weighted else None
        policy.set_weights(weights)
        fresh = ConsistentHashPlacement(replication=replication)
        fresh.set_weights(weights)
        assert policy.place(population, roster) == brute_force_place(fresh, population, roster)


def _ledger_quick(workload: str) -> Tuple[ScenarioSpec, StorageService]:
    """A ledger workload at ``--quick`` size, seed 42: its spec and service."""
    ledger = Path(__file__).resolve().parent.parent / "ledger"
    workloads = runpy.run_path(str(ledger / "workloads.py"))
    profile, spec = workloads["WORKLOADS"][workload](43, True)
    return spec, StorageService(spec, catalog=tpch.build_catalog(profile, 42))


def _fleet_churn_quick() -> StorageService:
    """The ledger's ``fleet-churn`` at ``--quick`` size, seed 42."""
    return _ledger_quick("fleet-churn")[1]


def test_the_census_goes_when_the_last_declared_epoch_has_opened():
    """``keys-fanout``'s join is its one epoch and no periodic rebalancer
    runs, so the controller drops its census right after the join, not at
    the end of the run; the report is the one a census kept to the end
    gives."""

    def report(keep: bool) -> Tuple[str, list]:
        seen = []
        opened = FleetController._epoch_opened

        def observed(controller):
            if not keep:
                opened(controller)
            seen.append((controller.env.now, controller._census))

        spec, service = _ledger_quick("keys-fanout")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FleetController, "_epoch_opened", observed)
            result = service.run()
        assert result.total_simulated_time > seen[0][0]
        return ScenarioRunner(check=False)._build_report(spec, service, result, []).to_json(), seen

    dropped, seen = report(keep=False)
    assert seen == [(30.0, None)]
    kept, seen = report(keep=True)
    assert len(seen) == 1 and seen[0][1]  # the census the join left
    assert dropped == kept


@pytest.mark.parametrize(
    "build", [epoch_budget_service, _fleet_churn_quick], ids=["epoch-budget", "fleet-churn"]
)
def test_each_destinations_gained_keys_come_in_canonical_order(build):
    """``plan.moves`` follow the rank-sorted changed keys, so a
    destination's keys, in move order, ascend in canonical rank: the order
    its layout is extended in with no sort of its own."""
    service = build()
    service.run()
    canonical = (key for keys in service.fleet.client_objects.values() for key in keys)
    rank = {key: position for position, key in enumerate(canonical)}
    plans = service.controller.migration_plans
    assert len(plans) >= 4 and all(plan.moves for plan in plans)
    for plan in plans:
        gained: Dict[str, List[int]] = {}
        for move in plan.moves:
            gained.setdefault(move.dest, []).append(rank[move.object_key])
        for dest, ranks in gained.items():
            assert ranks == sorted(ranks), (plan.epoch, plan.kind, dest)
