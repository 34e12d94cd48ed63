"""Disk groups and the object-to-group mapping."""

from __future__ import annotations

from typing import Dict, Iterable, KeysView, List, Mapping, Optional, Set

from repro.exceptions import LayoutError


class DiskGroupLayout:
    """Mapping from object keys to disk-group identifiers.

    The CSD middleware in the paper keeps exactly this metadata: which group
    each stored object lives on.  Group identifiers are small integers.  The
    mapping is append-only: rebalancing may :meth:`add_object` keys migrated
    onto the device mid-run, but an object is never re-homed or removed.
    """

    def __init__(self, assignment: Mapping[str, int]) -> None:
        if not assignment:
            raise LayoutError("layout must place at least one object")
        for key, group in assignment.items():
            if group < 0:
                raise LayoutError(f"object {key!r} assigned to negative group {group}")
        self._assignment: Dict[str, int] = dict(assignment)
        self._groups: Dict[int, Set[str]] = {}
        for key, group in self._assignment.items():
            self._groups.setdefault(group, set()).add(key)
        #: Lowest group per tenant prefix; built by the first
        #: :meth:`tenant_group_map` call (most layouts never need it) and
        #: kept current by :meth:`add_object` from then on.
        self._lowest_by_tenant: Optional[Dict[str, int]] = None

    @property
    def num_groups(self) -> int:
        """Number of distinct disk groups used by the layout."""
        return len(self._groups)

    @property
    def group_ids(self) -> List[int]:
        """Sorted list of group identifiers."""
        return sorted(self._groups)

    @property
    def max_group_id(self) -> int:
        """Largest group identifier in use."""
        return max(self._groups)

    def add_object(self, object_key: str, group_id: int) -> None:
        """Place a new object into ``group_id`` (used by fleet rebalancing).

        Existing objects cannot be re-homed; migrating a key onto a device
        that already holds it is a layout bug upstream.
        """
        if group_id < 0:
            raise LayoutError(f"object {object_key!r} assigned to negative group {group_id}")
        if object_key in self._assignment:
            raise LayoutError(f"object {object_key!r} is already placed by this layout")
        self._assignment[object_key] = group_id
        self._groups.setdefault(group_id, set()).add(object_key)
        lowest = self._lowest_by_tenant
        if lowest is not None:
            tenant, separator, _rest = object_key.partition("/")
            if separator and group_id < lowest.get(tenant, group_id + 1):
                lowest[tenant] = group_id

    def tenant_group_map(self) -> Dict[str, int]:
        """Lowest group id per tenant prefix (keys without one are skipped).

        The first call scans the layout once; from then on
        :meth:`add_object` keeps the map current, so rebalancing a device
        epoch after epoch never rescans it.  Returns a fresh dict.
        """
        lowest = self._lowest_by_tenant
        if lowest is None:
            lowest = self._lowest_by_tenant = {}
            for key, group in self._assignment.items():
                tenant, separator, _rest = key.partition("/")
                if separator and group < lowest.get(tenant, group + 1):
                    lowest[tenant] = group
        return dict(lowest)

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

    def group_if_placed(self, object_key: str) -> Optional[int]:
        """Group holding ``object_key``, or ``None`` if it is not placed.

        One dict probe doing the work of ``has_object`` + ``group_of`` —
        the device submit path runs this for every incoming request.
        """
        return self._assignment.get(object_key)

    def objects_in_group(self, group_id: int) -> Set[str]:
        """All object keys stored in ``group_id``."""
        if group_id not in self._groups:
            raise LayoutError(f"unknown disk group: {group_id}")
        return set(self._groups[group_id])

    def has_object(self, object_key: str) -> bool:
        """Whether the layout places ``object_key``."""
        return object_key in self._assignment

    def groups_of(self, object_keys: Iterable[str]) -> Set[int]:
        """Set of groups covering ``object_keys``."""
        return {self.group_of(key) for key in object_keys}

    def as_dict(self) -> Dict[str, int]:
        """Copy of the underlying object → group mapping."""
        return dict(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskGroupLayout objects={len(self._assignment)} groups={self.num_groups}>"
