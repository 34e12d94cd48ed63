"""Unit and property-based tests for disk-group layouts."""

import pytest
from hypothesis import given, strategies as st

from repro.csd import (
    AllInOneLayout,
    ClientsPerGroupLayout,
    IncrementalLayout,
    RoundRobinObjectLayout,
    SkewedLayout,
)
from repro.csd.disk_group import DiskGroupLayout
from repro.exceptions import LayoutError


def _client_objects(num_clients=4, objects_per_client=6):
    return {
        f"client{c}": [f"client{c}/t.{i}" for i in range(objects_per_client)]
        for c in range(num_clients)
    }


def _groups_of(layout, keys):
    return {layout.group_of(key) for key in keys}


class TestDiskGroupLayout:
    def test_basic_queries(self):
        layout = DiskGroupLayout({"a": 0, "b": 0, "c": 1}, {})
        assert layout.num_groups == 2
        assert layout.max_group_id == 1
        assert layout.group_of("c") == 1
        assert layout.has_object("a") and not layout.has_object("z")
        assert layout.group_if_placed("b") == 0 and layout.group_if_placed("z") is None
        assert len(layout.placed_keys) == 3
        assert sorted(layout.placed_keys) == ["a", "b", "c"]
        layout.add_objects(["d"], [4])
        assert (layout.num_groups, layout.max_group_id) == (3, 4)
        layout.add_objects(["e"], [2])
        assert (layout.num_groups, layout.max_group_id) == (4, 4)

    def test_the_layout_takes_its_assignment_over(self):
        """Every policy builds the mapping fresh for the layout, so the layout
        keeps that dict rather than a copy: one per-key table per device.
        (A copy changes neither the live nor the peak bytes the bytes gate
        reads — the caller's dict is freed — only set-up time.)"""
        assignment = {"a": 0, "b": 1}
        layout = DiskGroupLayout(assignment, {})
        layout.add_objects(["c"], [1])
        assert assignment == {"a": 0, "b": 1, "c": 1}

    def test_errors(self):
        with pytest.raises(LayoutError):
            DiskGroupLayout({}, {})
        with pytest.raises(LayoutError):
            DiskGroupLayout({"a": -1}, {})
        layout = DiskGroupLayout({"a": 0}, {})
        with pytest.raises(LayoutError):
            layout.group_of("missing")


class TestPolicies:
    def test_all_in_one(self):
        layout = AllInOneLayout().build(_client_objects())
        assert layout.num_groups == 1

    def test_one_client_per_group(self):
        clients = _client_objects(num_clients=3)
        layout = ClientsPerGroupLayout(1).build(clients)
        assert layout.num_groups == 3
        for client, objects in clients.items():
            assert len(_groups_of(layout, objects)) == 1

    def test_two_clients_per_group(self):
        clients = _client_objects(num_clients=4)
        layout = ClientsPerGroupLayout(2).build(clients)
        assert layout.num_groups == 2

    def test_incremental_splits_each_client_across_two_groups(self):
        clients = _client_objects(num_clients=4, objects_per_client=6)
        layout = IncrementalLayout().build(clients)
        assert layout.num_groups == 4
        for client, objects in clients.items():
            assert len(_groups_of(layout, objects)) == 2

    def test_round_robin(self):
        clients = _client_objects(num_clients=1, objects_per_client=7)
        layout = RoundRobinObjectLayout(3).build(clients)
        assert layout.num_groups == 3

    def test_skewed_layout(self):
        clients = _client_objects(num_clients=5)
        layout = SkewedLayout([2, 2, 1]).build(clients)
        assert layout.num_groups == 3
        last_client_objects = clients["client4"]
        assert _groups_of(layout, last_client_objects) == {2}

    def test_skewed_layout_must_cover_all_clients(self):
        with pytest.raises(LayoutError):
            SkewedLayout([2, 2]).build(_client_objects(num_clients=5))

    def test_empty_inputs_rejected(self):
        with pytest.raises(LayoutError):
            AllInOneLayout().build({})
        with pytest.raises(LayoutError):
            AllInOneLayout().build({"c": []})
        with pytest.raises(LayoutError):
            ClientsPerGroupLayout(0)
        with pytest.raises(LayoutError):
            RoundRobinObjectLayout(0)


@given(
    num_clients=st.integers(min_value=1, max_value=8),
    objects_per_client=st.integers(min_value=1, max_value=12),
    clients_per_group=st.integers(min_value=1, max_value=4),
)
def test_every_policy_places_every_object_exactly_once(
    num_clients, objects_per_client, clients_per_group
):
    clients = _client_objects(num_clients, objects_per_client)
    all_objects = {key for objects in clients.values() for key in objects}
    policies = [
        AllInOneLayout(),
        ClientsPerGroupLayout(clients_per_group),
        IncrementalLayout(),
        RoundRobinObjectLayout(3),
    ]
    for policy in policies:
        layout = policy.build(clients)
        assert set(layout.placed_keys) == all_objects
        # every object maps to exactly one group, all of them counted
        groups = _groups_of(layout, all_objects)
        assert len(groups) == layout.num_groups and max(groups) == layout.max_group_id


@given(num_clients=st.integers(min_value=1, max_value=6))
def test_one_client_per_group_isolates_clients(num_clients):
    clients = _client_objects(num_clients, 4)
    layout = ClientsPerGroupLayout(1).build(clients)
    groups_seen = set()
    for objects in clients.values():
        groups = _groups_of(layout, objects)
        assert len(groups) == 1
        groups_seen |= groups
    assert len(groups_seen) == num_clients
