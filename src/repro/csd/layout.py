"""Data layout policies.

In a shared, virtualised CSD the database has no control over where its
objects land; the layout policy models the placement decisions the storage
service makes.  The policies below are the four layouts of the paper's
sensitivity study (Section 5.2.3), the skewed layout of its fairness
experiment (Section 5.2.5) and a round-robin stripe used for ablations.

Every policy turns a mapping ``client -> [object keys]`` into a
:class:`~repro.csd.disk_group.DiskGroupLayout`.  A client's keys are named
``client/…`` (the object store's ``tenant/segment``), so the lowest group a
policy gives each client is the layout's lowest group per tenant, known
per client without reading a key.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.csd.disk_group import DiskGroupLayout
from repro.exceptions import LayoutError, StorageError

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
        return DiskGroupLayout(assignment, dict.fromkeys(client_objects, 0))


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
        lowest: Dict[str, int] = {}
        for position, (client, objects) in enumerate(client_objects.items()):
            group = lowest[client] = position // self.clients_per_group
            for key in objects:
                assignment[key] = group
        return DiskGroupLayout(assignment, lowest)


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
        lowest: Dict[str, int] = {}
        for position, client in enumerate(clients):
            objects = list(client_objects[client])
            half = (len(objects) + 1) // 2
            first_half, second_half = objects[:half], objects[half:]
            for key in first_half:
                assignment[key] = position
            for key in second_half:
                assignment[key] = (position + 1) % num_groups
            lowest[client] = min(position, (position + 1) % num_groups) if second_half else position
        return DiskGroupLayout(assignment, lowest)


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
        # Every client's first object lands on group 0.
        return DiskGroupLayout(assignment, dict.fromkeys(client_objects, 0))


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
        lowest: Dict[str, int] = {}
        cursor = 0
        for group, count in enumerate(self.clients_per_group):
            for client in clients[cursor : cursor + count]:
                lowest[client] = group
                for key in client_objects[client]:
                    assignment[key] = group
            cursor += count
        return DiskGroupLayout(assignment, lowest)


def extend_layout_with_keys(layout: DiskGroupLayout, keys: Sequence[str]) -> List[int]:
    """Home migrated ``keys`` on a device's existing layout (in given order).

    The rule every layout shares under rebalancing: a key joins the lowest
    disk group already holding its tenant's objects on this device; a tenant
    new to the device opens a fresh group (keys of the same tenant within
    one call stay together).  Returns the group chosen for each key.  All or
    nothing: a malformed key, or one the layout rejects, leaves it as it was.
    """
    # The layout keeps its tenant map current, so an extension of M keys
    # costs O(M + tenants), never a scan of the layout's own keys.
    group_by_tenant = layout.tenant_group_map()
    next_fresh = layout.max_group_id + 1
    groups: List[int] = []
    append = groups.append
    tenant_of_run: Optional[str] = None
    group = next_fresh
    for key in keys:
        # The key split into tenant and segment id, inline: this runs per
        # moved key, which the epoch frame budget gates.
        tenant, separator, segment = key.partition("/")
        if not separator or not tenant or not segment:
            raise StorageError(f"malformed object key: {key!r}")
        if tenant != tenant_of_run:
            # A new run of one tenant's keys (a client-major key list is
            # one run per tenant): its group is looked up once.
            tenant_of_run = tenant
            found = group_by_tenant.get(tenant)
            if found is None:
                found = group_by_tenant[tenant] = next_fresh
                next_fresh += 1
            group = found
        append(group)
    layout.add_objects(keys, groups)
    return groups
