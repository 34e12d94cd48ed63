"""The client proxy: mediator between MJoin and the cold storage backend.

In the paper this is a daemon collocated with each PostgreSQL instance: MJoin
hands it the list of objects it needs, the proxy issues tagged HTTP GET
requests against Swift and notifies MJoin as objects arrive.  Here the proxy
translates segment ids into namespaced object keys, tags every request with a
query identifier (so the CSD scheduler can be query-aware) and funnels
completions into a FIFO the executor consumes in arrival order.  Like the
paper's daemon there is one proxy per database instance: a session owns one
for its whole connection, so the query ids it mints (``tenant:query:0, 1,
2, …``) are unique across everything the tenant runs.

The proxy is backend-agnostic: ``device`` may be a single
:class:`~repro.csd.device.ColdStorageDevice` or a sharded
:class:`~repro.fleet.router.FleetRouter` — anything satisfying
:class:`~repro.csd.backend.StorageBackend`.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.csd.backend import StorageBackend
from repro.csd.request import GetRequest
from repro.exceptions import StorageError
from repro.sim import Environment, Store
from repro.sim.events import Event


class ClientProxy:
    """Per-client request broker in front of the shared storage backend."""

    def __init__(self, env: Environment, device: StorageBackend, client_id: str) -> None:
        self.env = env
        self.device = device
        self.client_id = client_id
        #: Arrived objects as ``(segment_id, payload)`` pairs in delivery order.
        self.arrivals: Store = Store(env, name=f"{client_id}-arrivals")
        self.requests_issued = 0
        self.requests_completed = 0
        self._query_counter = itertools.count()
        #: Length of the ``tenant/`` prefix of this client's object keys.
        self._prefix_length = len(client_id) + 1

    def new_query_id(self, query_name: str) -> str:
        """Mint a query identifier used to tag all requests of one query."""
        return f"{self.client_id}:{query_name}:{next(self._query_counter)}"

    def request_objects(self, segment_ids: Sequence[str], query_id: str) -> None:
        """Issue one GET per segment id, tagged with ``query_id``.

        Completions are pushed into :attr:`arrivals` in the order the device
        delivers them, which is generally different from the request order —
        that is the whole point of CSD-driven execution.
        """
        # The whole burst (a million objects at the largest scales) goes to
        # the backend as one batch; the key prefix is validated once here,
        # matching ``make_object_key`` exactly, and every completion shares
        # one callback instead of a closure per request.
        client_id = self.client_id
        if not client_id or "/" in client_id:
            raise StorageError(f"invalid tenant name: {client_id!r}")
        env = self.env
        on_complete = self._on_complete
        requests = []
        for segment_id in segment_ids:
            object_key = f"{client_id}/{segment_id}"
            completion = Event(env, object_key)
            completion.callbacks.append(on_complete)
            requests.append(GetRequest(object_key, client_id, query_id, completion))
        self.device.submit_many(requests)
        self.requests_issued += len(requests)

    def _on_complete(self, event: Event) -> None:
        """Deliver a completed GET: the segment id is the key minus the
        ``tenant/`` prefix (one shared callback instead of a closure per
        request)."""
        self.requests_completed += 1
        self.arrivals.put((event.name[self._prefix_length :], event.value))
