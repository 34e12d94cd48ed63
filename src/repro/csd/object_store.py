"""Swift-like object store.

Objects are stored under string keys of the form ``tenant/table.segment``
(the tenant prefix plays the role of a Swift account/container, the rest is
the object name).  Payloads are arbitrary Python objects — in practice
:class:`~repro.engine.relation.Segment` instances.
"""

from __future__ import annotations

import re
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import StorageError


#: Segment ids of the form ``table.<index>``, each ended by a newline: the
#: keys whose index the device's group-queue sort can parse.
_SEGMENT_IDS = re.compile(r"(?:.+\.[0-9]+\n)*")


class _Objects(Dict[str, object]):
    """Key -> payload; looking up a key that is not stored raises
    :class:`StorageError`."""

    def __missing__(self, object_key: str) -> object:
        raise StorageError(f"object not found: {object_key!r}")


class ObjectStore:
    """In-memory blob store with per-tenant namespaces.

    Besides the objects it keeps every tenant's keys by segment id, so a
    client requests an object under the store's own key string instead of
    building a copy per GET: :attr:`key_columns` numbers each segment id once,
    for all tenants, and a tenant's :meth:`key_row` holds its key at each
    column (``None`` where it stores no such segment).
    """

    def __init__(self) -> None:
        self._objects = _Objects()
        #: ``get(object_key)``: the payload stored under the key (a
        #: :class:`StorageError` if there is none), and ``exists(object_key)``:
        #: whether there is one.  The mapping's own lookups, so the device's
        #: check of every GET and its read of every payload enter no Python
        #: frame.
        self.get: Callable[[str], object] = self._objects.__getitem__
        self.exists: Callable[[str], bool] = self._objects.__contains__
        #: Segment id -> its column in every tenant's key row.
        self.key_columns: Dict[str, int] = {}
        #: Tenant -> its keys by column; every row is as wide as ``key_columns``.
        self._rows: Dict[str, List[Optional[str]]] = {}

    def put_segments(
        self, tenant: str, segment_ids: Sequence[str], payloads: Sequence[object]
    ) -> List[str]:
        """Store ``payloads[i]`` for ``tenant`` under ``tenant/segment_ids[i]``
        and return the keys, in order — all or nothing.

        The tenant name is checked once for the whole call.  An invalid
        tenant name (empty, or holding ``/``), a segment id that is not
        ``table.<int>``, or a key already stored or listed twice rejects the
        call before anything is stored: objects are never overwritten.
        """
        if not tenant or "/" in tenant:
            raise StorageError(f"invalid tenant name: {tenant!r}")
        prefix = f"{tenant}/"
        keys = [prefix + segment_id for segment_id in segment_ids]
        loaded = dict(zip(keys, payloads))
        objects = self._objects
        if not all(segment_ids) or len(loaded) < len(keys) or not objects.keys().isdisjoint(loaded):
            seen = set()
            for segment_id, object_key in zip(segment_ids, keys):
                if not segment_id:
                    raise StorageError(f"malformed object key: {object_key!r}")
                if object_key in objects or object_key in seen:
                    raise StorageError(f"object {object_key!r} already exists")
                seen.add(object_key)
        columns = self.key_columns
        fresh = [segment_id for segment_id in segment_ids if segment_id not in columns]
        # A device's group-queue sort parses every key's segment index: a
        # segment id is checked once, by the first tenant that stores it,
        # and the new ones in one match.
        if fresh and not _SEGMENT_IDS.fullmatch("\n".join(fresh) + "\n"):
            malformed = next(
                segment_id for segment_id in fresh if not _SEGMENT_IDS.fullmatch(segment_id + "\n")
            )
            raise StorageError(f"malformed object key: {prefix + malformed!r}")
        objects.update(loaded)
        columns.update(zip(fresh, count(len(columns))))
        row = self.key_row(tenant)
        for other in self._rows.values():
            other.extend([None] * (len(columns) - len(other)))
        for column, object_key in zip(map(columns.__getitem__, segment_ids), keys):
            row[column] = object_key
        return keys

    def key_row(self, tenant: str) -> List[Optional[str]]:
        """``tenant``'s stored keys by column of :attr:`key_columns`: the live row,
        which later loads widen and fill in place."""
        row = self._rows.get(tenant)
        if row is None:
            row = self._rows[tenant] = [None] * len(self.key_columns)
        return row
