"""The storage-backend interface clients program against.

Executors and client proxies never care whether their GETs land on the
single shared :class:`~repro.csd.device.ColdStorageDevice` of the paper's
testbed or on a sharded :class:`~repro.fleet.router.FleetRouter` — both
expose the same entry points.  The protocol below captures that contract
so the client layers can be typed against the interface instead of one
concrete device class.

``submit_many`` is the verb: Skipper's proxy hands the backend every GET of
a query up front (paper §4), so a batch is what crosses this boundary, in
one call, and what a backend routes, validates and enqueues as a unit.
``submit`` (a batch of one) and ``get`` (build a request, then ``submit``)
are conveniences over it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.csd.request import GetRequest
    from repro.sim import Environment


@runtime_checkable
class StorageBackend(Protocol):
    """Anything able to accept tagged GET requests and complete them."""

    env: Environment

    def submit_many(self, requests: Sequence[GetRequest]) -> None:
        """Accept ``requests`` in order, all or nothing (an invalid request
        raises before anything moves); each ``completion`` event fires with
        its payload."""
        ...

    def submit(self, request: GetRequest) -> GetRequest:
        """Accept one request: ``submit_many((request,))``."""
        ...

    def get(self, object_key: str, client_id: str, query_id: str) -> GetRequest:
        """Build and submit a request for ``object_key``."""
        ...
