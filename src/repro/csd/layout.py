"""Data layout policies.

In a shared, virtualised CSD the database has no control over where its
objects land; the layout policy models the placement decisions the storage
service makes.  The policies below are the four layouts of the paper's
sensitivity study (Section 5.2.3) plus two extras used for ablations.

Every policy turns a mapping ``client -> [object keys]`` into a
:class:`~repro.csd.disk_group.DiskGroupLayout`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.csd.disk_group import DiskGroupLayout
from repro.csd.object_store import split_object_key
from repro.exceptions import LayoutError

ClientObjects = Mapping[str, Sequence[str]]


class LayoutPolicy:
    """Base class for layout policies."""

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        """Place every object of every client into a disk group."""
        raise NotImplementedError

    @staticmethod
    def _validate(client_objects: ClientObjects) -> None:
        if not client_objects:
            raise LayoutError("layout requires at least one client")
        for client, objects in client_objects.items():
            if not objects:
                raise LayoutError(f"client {client!r} has no objects to place")


class AllInOneLayout(LayoutPolicy):
    """Every object of every client in a single disk group ("Allin1").

    With a 0 s switch this is also the HDD-based capacity tier of the
    paper's "Ideal": one group, so never a group switch.
    """

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        assignment = {
            key: 0 for objects in client_objects.values() for key in objects
        }
        return DiskGroupLayout(assignment)


class ClientsPerGroupLayout(LayoutPolicy):
    """Pack ``clients_per_group`` clients into each disk group.

    ``clients_per_group=1`` is the paper's default one-client-per-group
    layout ("1perG"); ``clients_per_group=2`` is "2perG".  Clients are
    assigned to groups in their listed order.
    """

    def __init__(self, clients_per_group: int = 1) -> None:
        if clients_per_group <= 0:
            raise LayoutError("clients_per_group must be positive")
        self.clients_per_group = clients_per_group

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        assignment: Dict[str, int] = {}
        for position, (client, objects) in enumerate(client_objects.items()):
            group = position // self.clients_per_group
            for key in objects:
                assignment[key] = group
        return DiskGroupLayout(assignment)


class IncrementalLayout(LayoutPolicy):
    """The paper's "Increm." layout: each client's data is split in half and
    the halves of neighbouring clients share a group.

    With clients C1..C4 and groups G1..G4 the paper places C1.1+C4.2 on G1,
    C1.2+C2.1 on G2, C2.2+C3.1 on G3 and C3.2+C4.1 on G4.  Generalised to N
    clients: the first half of client *i* goes to group *i*, the second half
    to group *i+1* (mod N).
    """

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        clients = list(client_objects)
        num_groups = len(clients)
        assignment: Dict[str, int] = {}
        for position, client in enumerate(clients):
            objects = list(client_objects[client])
            half = (len(objects) + 1) // 2
            first_half, second_half = objects[:half], objects[half:]
            for key in first_half:
                assignment[key] = position
            for key in second_half:
                assignment[key] = (position + 1) % num_groups
        return DiskGroupLayout(assignment)


class RoundRobinObjectLayout(LayoutPolicy):
    """Spread each client's objects round-robin over ``num_groups`` groups.

    Not part of the paper's figures; models a storage service that stripes
    incoming data for load balancing, the worst case for a layout-oblivious
    engine.
    """

    def __init__(self, num_groups: int) -> None:
        if num_groups <= 0:
            raise LayoutError("num_groups must be positive")
        self.num_groups = num_groups

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        assignment: Dict[str, int] = {}
        for objects in client_objects.values():
            for index, key in enumerate(objects):
                assignment[key] = index % self.num_groups
        return DiskGroupLayout(assignment)


class SkewedLayout(LayoutPolicy):
    """The skewed layout of the fairness experiment (Section 5.2.5).

    ``clients_per_group`` lists how many clients go into each successive
    group; the paper uses ``[2, 2, 1]`` for five clients (two groups with two
    clients each, one group with a single client).
    """

    def __init__(self, clients_per_group: Sequence[int]) -> None:
        if not clients_per_group or any(count <= 0 for count in clients_per_group):
            raise LayoutError("clients_per_group must be a list of positive counts")
        self.clients_per_group = list(clients_per_group)

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        clients = list(client_objects)
        if sum(self.clients_per_group) != len(clients):
            raise LayoutError(
                f"clients_per_group {self.clients_per_group} does not cover "
                f"{len(clients)} clients"
            )
        assignment: Dict[str, int] = {}
        cursor = 0
        for group, count in enumerate(self.clients_per_group):
            for client in clients[cursor : cursor + count]:
                for key in client_objects[client]:
                    assignment[key] = group
            cursor += count
        return DiskGroupLayout(assignment)


class TenantColocatedLayout(LayoutPolicy):
    """Placement-aware layout: each tenant's shard lives in one disk group.

    In fleet mode the router builds one layout *per device* over that
    device's placement subset; this policy co-locates everything a tenant
    stores on a device inside a single disk group, so a tenant's shard never
    pays intra-device group switches against itself.  When rebalancing later
    migrates more of the tenant's keys onto the device they join the
    tenant's existing group (see :func:`extend_layout_with_keys`), keeping
    the co-location guarantee across epochs.
    """

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        assignment: Dict[str, int] = {}
        for position, (client, objects) in enumerate(client_objects.items()):
            for key in objects:
                assignment[key] = position
        return DiskGroupLayout(assignment)


def extend_layout_with_keys(layout: DiskGroupLayout, keys: Iterable[str]) -> List[int]:
    """Home migrated ``keys`` on a device's existing layout (in given order).

    The rule every layout shares under rebalancing: a key joins the lowest
    disk group already holding its tenant's objects on this device; a tenant
    new to the device opens a fresh group (keys of the same tenant within
    one call stay together).  Returns the group chosen for each key.
    """
    groups: List[int] = []
    # The layout keeps its tenant map current once asked for it, so only a
    # device's first extension scans its K keys: later rebalances of M keys
    # cost O(M + tenants), not O(M + K).
    group_by_tenant = layout.tenant_group_map()
    next_fresh = layout.max_group_id + 1
    for key in keys:
        tenant, _segment = split_object_key(key)
        group = group_by_tenant.get(tenant)
        if group is None:
            group = next_fresh
            group_by_tenant[tenant] = group
            next_fresh += 1
        layout.add_object(key, group)
        groups.append(group)
    return groups


class CustomLayout(LayoutPolicy):
    """Explicit object-to-group mapping, e.g. the paper's Table 2 example."""

    def __init__(self, assignment: Mapping[str, int]) -> None:
        if not assignment:
            raise LayoutError("custom layout requires an explicit assignment")
        self.assignment = dict(assignment)

    def build(self, client_objects: ClientObjects) -> DiskGroupLayout:
        self._validate(client_objects)
        missing: List[str] = []
        for objects in client_objects.values():
            for key in objects:
                if key not in self.assignment:
                    missing.append(key)
        if missing:
            raise LayoutError(f"custom layout does not place objects: {sorted(missing)[:5]}")
        return DiskGroupLayout(self.assignment)
