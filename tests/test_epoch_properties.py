"""Oracles for the per-shape epoch change.

An epoch change resolves each distinct ``(old, new)`` replica-tuple pair
once, keeps every layout's lowest group per tenant current as keys are
added, and counts replication health per distinct tuple.  Each of these is
held here to the per-key definition it replaced:

* :func:`plan_migration` against :func:`reference_plan`, the per-key loop,
  over placements with R = 1–3 on either side, dead devices, a leaver that
  is a key's last holder and destinations that still hold a key;
* ``DiskGroupLayout.tenant_group_map`` against a scan of the layout, before
  and after its first call, across ``add_object`` sequences;
* ``FleetController.under_replicated_count`` against a per-key count.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Container, Dict, List, Mapping, Optional, Sequence, Tuple

from hypothesis import example, given, strategies as st

from repro.csd.disk_group import DiskGroupLayout
from repro.fleet.controller import FleetController
from repro.fleet.migration import KeyMove, KeyTrim, plan_migration

DEVICES = tuple(f"csd{index}" for index in range(6))


def reference_plan(
    device_id: str,
    old_placement: Mapping[str, Sequence[str]],
    new_placement: Mapping[str, Sequence[str]],
    alive: Optional[Mapping[str, bool]],
    resident: Optional[Mapping[str, Container[str]]],
    changed_keys: Optional[Sequence[str]],
) -> Tuple[List[KeyMove], List[KeyTrim]]:
    """The per-key planner: every key's trims, candidates and source afresh."""
    moves: List[KeyMove] = []
    trims: List[KeyTrim] = []
    if changed_keys is None:
        items = list(old_placement.items())
    else:
        items = [(key, old_placement[key]) for key in changed_keys]
    for object_key, old_replicas in items:
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
                            if alive is None or alive.get(survivor, True)
                        ),
                    )
                )
        gained = [
            device
            for device in new_replicas
            if device not in old_replicas
            and not (resident is not None and object_key in resident.get(device, ()))
        ]
        if not gained:
            continue
        source = next(
            (device for device in old_replicas if alive is None or alive.get(device, True)),
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
    """(device_id, old, new, alive, resident, changed_keys or None)."""
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
    alive = draw(st.none() | st.fixed_dictionaries({device: st.booleans() for device in DEVICES}))
    device_id = draw(st.sampled_from(DEVICES + ("fleet",)))
    resident = draw(
        st.none()
        | st.dictionaries(st.sampled_from(DEVICES), st.sets(st.sampled_from(keys)), max_size=4)
    )
    changed = [key for key in keys if old[key] != new[key]]
    return device_id, old, new, alive, resident, draw(st.none() | st.just(changed))


#: The leaver ``csd0`` is the last holder: ``csd1`` failed earlier.
LEAVER_IS_LAST_HOLDER = (
    "csd0",
    {"a/t.0": ("csd1", "csd0"), "a/t.1": ("csd1", "csd0")},
    {"a/t.0": ("csd2", "csd3"), "a/t.1": ("csd2", "csd3")},
    {"csd0": False, "csd1": False, "csd2": True, "csd3": True},
    None,
    None,
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
    None,
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
        alive=alive,
        resident=resident,
        changed_keys=changed,
    )
    moves, trims = reference_plan(device_id, old, new, alive, resident, changed)
    assert plan.moves == moves
    assert plan.trims == trims
    assert plan.keys_moved == len({move.object_key for move in moves})
    assert plan.keys_trimmed == len({trim.object_key for trim in trims})


def test_the_named_cases_plan_what_they_say():
    device_id, old, new, alive, _resident, _changed = LEAVER_IS_LAST_HOLDER
    leave = plan_migration(1, 0.0, "leave", device_id, old, new, alive=alive)
    assert {move.source for move in leave.moves} == {"csd0"}
    assert [trim.survivors for trim in leave.trims] == [2] * 4
    device_id, old, new, alive, resident, changed = READOPTION_ON_R_UP
    upgrade = plan_migration(
        1, 0.0, "set-replication", device_id, old, new, resident=resident, changed_keys=changed
    )
    assert ("a/t.1", "csd0", "csd2") not in upgrade.moves
    assert ("a/t.0", "csd0", "csd2") in upgrade.moves
    assert upgrade.trims == []


def _lowest_by_scan(layout: DiskGroupLayout) -> Dict[str, int]:
    lowest: Dict[str, int] = {}
    for key, group in layout.as_dict().items():
        tenant, separator, _rest = key.partition("/")
        if separator:
            lowest[tenant] = min(group, lowest.get(tenant, group))
    return lowest


_OBJECT_KEYS = st.sampled_from(
    [f"{tenant}/t.{index}" for tenant in "abcd" for index in range(6)] + ["bare.0", "bare.1"]
)


@given(
    initial=st.dictionaries(_OBJECT_KEYS, st.integers(0, 5), min_size=1),
    additions=st.lists(st.tuples(_OBJECT_KEYS, st.integers(0, 7)), max_size=20),
    first_call=st.integers(0, 20),
)
def test_tenant_group_map_is_a_scan_of_the_layout(initial, additions, first_call):
    layout = DiskGroupLayout(initial)
    for step, (key, group) in enumerate(additions):
        if step == first_call:
            assert layout.tenant_group_map() == _lowest_by_scan(layout)
        if not layout.has_object(key):
            layout.add_object(key, group)
        if step >= first_call:
            assert layout.tenant_group_map() == _lowest_by_scan(layout)
    snapshot = layout.tenant_group_map()
    assert snapshot == _lowest_by_scan(layout)
    snapshot["intruder"] = -1  # a fresh dict: the layout's own map is untouched
    assert "intruder" not in layout.tenant_group_map()


def _controller(serving: Sequence[str], replication: int) -> FleetController:
    """A controller shell: ``under_replicated_count`` reads only the membership."""
    controller = FleetController.__new__(FleetController)
    controller.membership = SimpleNamespace(
        replication=replication, serving_ids=lambda: tuple(serving)
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
    assert controller.under_replicated_count(placement) == per_key
