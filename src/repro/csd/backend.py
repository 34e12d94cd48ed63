"""The storage-backend interface clients program against.

Executors and client proxies never care whether their GETs land on the
single shared :class:`~repro.csd.device.ColdStorageDevice` of the paper's
testbed or on a sharded :class:`~repro.fleet.router.FleetRouter` — both
expose the same entry points.  The protocol below captures that contract
so the client layers can be typed against the interface instead of one
concrete device class.

``submit_many`` is the verb: Skipper's proxy hands the backend every GET of
a query up front (paper §4), so a batch is what crosses this boundary, in
one call, and what a backend routes, validates and enqueues as a unit — a
single GET is a batch of one, and a served one is its own completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.csd.object_store import ObjectStore
    from repro.csd.request import GetRequest
    from repro.sim import Environment


@runtime_checkable
class StorageBackend(Protocol):
    """Anything able to accept tagged GET requests and complete them."""

    env: Environment
    #: The store the backend serves from; clients request its keys.
    object_store: ObjectStore

    def submit_many(self, requests: Sequence[GetRequest]) -> None:
        """Accept ``requests`` in order, all or nothing (an invalid request
        raises before anything moves); each is delivered once served."""
        ...
