"""Object GET requests and migration jobs.

Each GET request is tagged with the issuing client and a query identifier —
the "semantic information" the Skipper client proxy attaches so the CSD
scheduler can reason about whole queries instead of isolated objects.
:class:`MigrationJob` is the other kind of work a device performs: bulk
object copies charged by the fleet controller while it rebalances after a
membership change.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

_request_counter = itertools.count()


class MigrationJob:
    """One unit of rebalancing I/O: read or write of a migrating object.

    Jobs are injected through the device inbox like GET requests but bypass
    the query scheduler: the device performs them with priority over
    foreground work (the window during which foreground requests were held
    up is reported as migration interference).
    """

    __slots__ = ("object_key", "direction", "seconds", "epoch", "reason", "notify")

    #: Why the copy happens: a membership rebalance (join/leave), read-repair
    #: after a fail-stop loss, write-path re-replication (R raised), or a
    #: feedback-driven placement reweight.
    KNOWN_REASONS = ("rebalance", "repair", "replicate", "reweight")

    def __init__(
        self,
        object_key: str,
        direction: str,
        seconds: float,
        epoch: int,
        reason: str = "rebalance",
        notify: Optional[Callable[[MigrationJob, float, float, bool], None]] = None,
    ) -> None:
        if direction not in ("read", "write"):
            raise ConfigurationError(
                f"migration direction must be read/write, got {direction!r}"
            )
        if reason not in self.KNOWN_REASONS:
            raise ConfigurationError(
                f"migration reason must be one of {self.KNOWN_REASONS}, got {reason!r}"
            )
        self.object_key = object_key
        self.direction = direction
        self.seconds = seconds
        self.epoch = epoch
        self.reason = reason
        #: Called by the device as ``notify(job, start, end, interfered)``.
        self.notify = notify

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MigrationJob {self.reason} {self.direction} {self.object_key} "
            f"epoch={self.epoch} seconds={self.seconds}>"
        )


class GetRequest:
    """A single object GET issued by a database client."""

    __slots__ = (
        "request_id",
        "object_key",
        "client_id",
        "query_id",
        "completion",
        "disk_group",
        "owner",
        "routed_at",
    )

    def __init__(
        self,
        object_key: str,
        client_id: str,
        query_id: str,
        completion: Event,
    ) -> None:
        self.request_id = next(_request_counter)
        self.object_key = object_key
        self.client_id = client_id
        self.query_id = query_id
        self.completion = completion
        #: Disk group resolved at submit time, and the group the request is
        #: served from (device-internal; the layout is append-only, so a
        #: placed key's group never changes).
        self.disk_group: Optional[int] = None
        #: Fleet member currently serving the request (router-internal);
        #: storing it here avoids a million-entry owner dict in the router.
        self.owner: Optional[object] = None
        #: Simulated time the router last dispatched the request (re-stamped
        #: on failover); completion minus this feeds the per-device latency
        #: EWMA behind adaptive routing.
        self.routed_at: Optional[float] = None

    @property
    def table_name(self) -> str:
        """Table encoded in the object key (``tenant/table.index`` or ``table.index``)."""
        _tenant, _, local = self.object_key.rpartition("/")
        table, _, _index = local.rpartition(".")
        return table

    @property
    def segment_index(self) -> int:
        """Segment index encoded in the object key."""
        _tenant, _, local = self.object_key.rpartition("/")
        _table, _, index = local.rpartition(".")
        return int(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GetRequest #{self.request_id} {self.object_key} "
            f"client={self.client_id} query={self.query_id}>"
        )
