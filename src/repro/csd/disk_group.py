"""Disk groups and the object-to-group mapping."""

from __future__ import annotations

from typing import Callable, Dict, KeysView, Optional, Sequence

from repro.exceptions import LayoutError


class DiskGroupLayout:
    """Mapping from object keys to disk-group identifiers.

    The CSD middleware in the paper keeps exactly this metadata: which group
    each stored object lives on.  Group identifiers are small integers.  The
    mapping is append-only: rebalancing may :meth:`add_objects` keys migrated
    onto the device mid-run, but an object is never re-homed or removed.
    """

    def __init__(self, assignment: Dict[str, int], lowest_by_tenant: Dict[str, int]) -> None:
        """Take ``assignment`` over as the layout's own mapping, and
        ``lowest_by_tenant`` as its lowest group per tenant prefix (keys
        without one have no tenant).  Every caller builds both fresh for
        the layout, the second as it lays each tenant's objects out, so
        neither is copied or rescanned."""
        if not assignment:
            raise LayoutError("layout must place at least one object")
        for key, group in assignment.items():
            if group < 0:
                raise LayoutError(f"object {key!r} assigned to negative group {group}")
        self._assignment = assignment
        #: Largest group identifier in use; :meth:`add_objects` keeps it current.
        self.max_group_id = max(self._assignment.values())
        #: Lowest group per tenant prefix; :meth:`add_objects` keeps it current.
        self._lowest_by_tenant = lowest_by_tenant
        #: ``group_if_placed(object_key)``: the group holding the key, or
        #: ``None`` if it is not placed.  The mapping's own ``get``, so the
        #: lookup the device runs for every GET and migration job enters
        #: no Python frame.
        self.group_if_placed: Callable[[str], Optional[int]] = self._assignment.get

    @property
    def num_groups(self) -> int:
        """Number of distinct disk groups used by the layout."""
        return len(set(self._assignment.values()))

    def add_objects(self, object_keys: Sequence[str], group_ids: Sequence[int]) -> None:
        """Place new objects, ``object_keys[i]`` into ``group_ids[i]`` (used
        by fleet rebalancing) — all or nothing.

        Existing objects cannot be re-homed; migrating a key onto a device
        that already holds it is a layout bug upstream.  Every key is
        checked before anything changes: one already placed, one listed
        twice or a negative group rejects the whole call.
        """
        assignment = self._assignment
        added = dict(zip(object_keys, group_ids))
        # All or nothing, checked in C; the keys are walked only to name
        # the first offender.
        if (
            len(added) < len(object_keys)
            or not assignment.keys().isdisjoint(added)
            or (group_ids and min(group_ids) < 0)
        ):
            seen = set()
            for object_key, group_id in zip(object_keys, group_ids):
                if group_id < 0:
                    raise LayoutError(
                        f"object {object_key!r} assigned to negative group {group_id}"
                    )
                if object_key in assignment:
                    raise LayoutError(f"object {object_key!r} is already placed by this layout")
                if object_key in seen:
                    raise LayoutError(f"object {object_key!r} is listed twice in one extension")
                seen.add(object_key)
        assignment.update(added)
        if group_ids:
            self.max_group_id = max(self.max_group_id, max(group_ids))
        lowest = self._lowest_by_tenant
        # The tenant is the key's ``tenant/`` prefix, inline: this runs per
        # moved key, which the epoch frame budget gates.
        for object_key, group_id in zip(object_keys, group_ids):
            tenant, separator, _rest = object_key.partition("/")
            if separator and group_id < lowest.get(tenant, group_id + 1):
                lowest[tenant] = group_id

    def tenant_group_map(self) -> Dict[str, int]:
        """Lowest group id per tenant prefix (keys without one are skipped),
        as a fresh dict: built with the layout and kept current by
        :meth:`add_objects`, so it never rescans the layout."""
        return dict(self._lowest_by_tenant)

    @property
    def placed_keys(self) -> KeysView[str]:
        """Every placed key: a live, read-only view (``in`` is one dict probe)."""
        return self._assignment.keys()

    def group_of(self, object_key: str) -> int:
        """Group holding ``object_key``."""
        try:
            return self._assignment[object_key]
        except KeyError:
            raise LayoutError(f"object {object_key!r} is not placed by this layout") from None

    def has_object(self, object_key: str) -> bool:
        """Whether the layout places ``object_key``."""
        return object_key in self._assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskGroupLayout objects={len(self._assignment)} groups={self.num_groups}>"
