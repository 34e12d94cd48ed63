"""Swift-like object store.

Objects are stored under string keys of the form ``tenant/table.segment``
(the tenant prefix plays the role of a Swift account/container, the rest is
the object name).  Payloads are arbitrary Python objects — in practice
:class:`~repro.engine.relation.Segment` instances.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import StorageError


def make_object_key(tenant: str, segment_id: str) -> str:
    """Build the store key for ``segment_id`` owned by ``tenant``."""
    if not tenant or "/" in tenant:
        raise StorageError(f"invalid tenant name: {tenant!r}")
    return f"{tenant}/{segment_id}"


def split_object_key(object_key: str) -> tuple[str, str]:
    """Split a store key into ``(tenant, segment_id)``."""
    tenant, sep, segment_id = object_key.partition("/")
    if not sep or not tenant or not segment_id:
        raise StorageError(f"malformed object key: {object_key!r}")
    return tenant, segment_id


class ObjectStore:
    """In-memory blob store with per-tenant namespaces."""

    def __init__(self) -> None:
        self._objects: Dict[str, object] = {}

    def put(self, object_key: str, payload: object) -> None:
        """Store ``payload`` under ``object_key`` (overwrites are rejected)."""
        split_object_key(object_key)
        if object_key in self._objects:
            raise StorageError(f"object {object_key!r} already exists")
        self._objects[object_key] = payload

    def put_segment(self, tenant: str, segment_id: str, payload: object) -> str:
        """Store ``payload`` for ``tenant`` and return the generated key."""
        key = make_object_key(tenant, segment_id)
        self.put(key, payload)
        return key

    def get(self, object_key: str) -> object:
        """Return the payload stored under ``object_key``."""
        try:
            return self._objects[object_key]
        except KeyError:
            raise StorageError(f"object not found: {object_key!r}") from None

    def exists(self, object_key: str) -> bool:
        """Whether an object is stored under ``object_key``."""
        return object_key in self._objects
