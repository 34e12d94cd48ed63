"""Swift-like object store.

Objects are stored under string keys of the form ``tenant/table.segment``
(the tenant prefix plays the role of a Swift account/container, the rest is
the object name).  Payloads are arbitrary Python objects — in practice
:class:`~repro.engine.relation.Segment` instances.
"""

from __future__ import annotations

from typing import Callable, Dict

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


class _Objects(Dict[str, object]):
    """Key -> payload; looking up a key that is not stored raises
    :class:`StorageError`."""

    def __missing__(self, object_key: str) -> object:
        raise StorageError(f"object not found: {object_key!r}")


class ObjectStore:
    """In-memory blob store with per-tenant namespaces."""

    def __init__(self) -> None:
        self._objects = _Objects()
        #: ``get(object_key)``: the payload stored under the key (a
        #: :class:`StorageError` if there is none), and ``exists(object_key)``:
        #: whether there is one.  The mapping's own lookups, so the device's
        #: check of every GET and its read of every payload enter no Python
        #: frame.
        self.get: Callable[[str], object] = self._objects.__getitem__
        self.exists: Callable[[str], bool] = self._objects.__contains__

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
