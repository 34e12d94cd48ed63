"""The client proxy: mediator between MJoin and the cold storage backend.

In the paper this is a daemon collocated with each PostgreSQL instance: MJoin
hands it the list of objects it needs, the proxy issues tagged HTTP GET
requests against Swift and notifies MJoin as objects arrive.  Here the proxy
translates segment ids into namespaced object keys, tags every request with a
query identifier (so the CSD scheduler can be query-aware) and funnels
served requests into a FIFO the executor consumes in arrival order: a served
GET is its own completion, handed to the proxy's one delivery handler.  Like the
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


class ClientProxy:
    """Per-client request broker in front of the shared storage backend."""

    def __init__(self, env: Environment, device: StorageBackend, client_id: str) -> None:
        self.env = env
        self.device = device
        self.client_id = client_id
        #: Arrived objects as ``(segment_id, payload)`` pairs in delivery order.
        self.arrivals: Store = Store(env, name=f"{client_id}-arrivals")
        self._query_counter = itertools.count()
        #: Length of the ``tenant/`` prefix of this client's object keys.
        self._prefix_length = len(client_id) + 1
        #: The store's segment columns and this client's keys by column: a
        #: GET carries the store's own key string, not a copy per request.
        store = device.object_store
        self._key_columns = store.key_columns
        self._keys = store.key_row(client_id)

    def new_query_id(self, query_name: str) -> str:
        """Mint a query identifier used to tag all requests of one query."""
        return f"{self.client_id}:{query_name}:{next(self._query_counter)}"

    def request_objects(self, segment_ids: Sequence[str], query_id: str) -> None:
        """Issue one GET per segment id, tagged with ``query_id``.

        Served requests are pushed into :attr:`arrivals` in the order the
        device serves them, which is generally different from the request
        order — that is the whole point of CSD-driven execution.
        """
        # The whole burst (a million objects at the largest scales) goes to
        # the backend as one batch, and every request shares one delivery
        # handler instead of a closure per request.
        client_id = self.client_id
        column_of = self._key_columns.get
        keys = self._keys
        deliver = self._deliver
        requests = []
        for segment_id in segment_ids:
            column = column_of(segment_id)
            object_key = None if column is None else keys[column]
            if object_key is None:
                raise StorageError(f"request for unknown object '{client_id}/{segment_id}'")
            requests.append(GetRequest(object_key, client_id, query_id, deliver))
        self.device.submit_many(requests)

    def _deliver(self, request: GetRequest) -> None:
        """Queue a served GET's payload under its segment id: the request's
        key minus the ``tenant/`` prefix."""
        self.arrivals.put((request.object_key[self._prefix_length :], request.value))
