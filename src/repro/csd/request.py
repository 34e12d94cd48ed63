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
import sys
from typing import Callable, NamedTuple, Optional, Tuple

from repro.exceptions import ConfigurationError

_request_counter = itertools.count()
_FLOAT_MAX = sys.float_info.max

#: ``GetRequest.value`` until the request is served (a payload may be ``None``).
UNSERVED = object()

#: Why a copy happens: a membership rebalance (join/leave), read-repair after
#: a fail-stop loss, write-path re-replication (R raised), or a
#: feedback-driven placement reweight.
MIGRATION_REASONS = ("rebalance", "repair", "replicate", "reweight")


class MigrationJob(NamedTuple):
    """One unit of rebalancing I/O: read or write of a migrating object.

    Jobs are injected through the device inbox like GET requests but bypass
    the query scheduler: the device performs them with priority over
    foreground work (the window during which foreground requests were held
    up is reported as migration interference).  Everything but the key is
    shared by a batch and validated once, by :func:`migration_fields`; a
    job is ``tuple.__new__(MigrationJob, (object_key, *fields))``.
    """

    object_key: str
    seconds: float
    #: The busy-log label, ``"{reason}:{direction}:epoch{epoch}"``.
    label: str
    #: Called by the device as ``notify(job, start, end, interfered)``.
    notify: MigrationNotify


MigrationNotify = Callable[[MigrationJob, float, float, bool], None]
#: The fields a batch of :class:`MigrationJob` shares: seconds, label, notify.
MigrationFields = Tuple[float, str, MigrationNotify]


def migration_fields(
    direction: str,
    seconds: float,
    epoch: int,
    reason: str,
    notify: MigrationNotify,
) -> MigrationFields:
    """Validate one batch of jobs and return what its jobs share.

    A rebalance charges one job per replica read or write; the direction,
    seconds, epoch and reason are the same for a device's reads (or writes)
    of one epoch, so they are checked here once, and the label is formatted
    once.
    """
    if direction not in ("read", "write"):
        raise ConfigurationError(f"migration direction must be read/write, got {direction!r}")
    if reason not in MIGRATION_REASONS:
        raise ConfigurationError(
            f"migration reason must be one of {MIGRATION_REASONS}, got {reason!r}"
        )
    # ``is_time(seconds)`` and ``is_count(epoch, minimum=0)``, inlined.
    if isinstance(seconds, bool) or not (
        isinstance(seconds, (int, float)) and 0 <= seconds <= _FLOAT_MAX
    ):
        raise ConfigurationError(
            f"migration seconds must be finite and non-negative, got {seconds!r}"
        )
    if isinstance(epoch, bool) or not (isinstance(epoch, int) and epoch >= 0):
        raise ConfigurationError(f"migration epoch must be an int of at least 0, got {epoch!r}")
    return seconds, f"{reason}:{direction}:epoch{epoch}", notify


class GetRequest:
    """A single object GET issued by a database client, and its completion:
    the device puts the payload in :attr:`value` and schedules the request,
    and the kernel hands it to :attr:`resume`."""

    __slots__ = (
        "request_id",
        "object_key",
        "client_id",
        "query_id",
        "deliver",
        "resume",
        "value",
        "disk_group",
        "owner",
        "routed_at",
    )

    def __init__(
        self,
        object_key: str,
        client_id: str,
        query_id: str,
        deliver: Callable[[GetRequest], None],
    ) -> None:
        self.request_id = next(_request_counter)
        self.object_key = object_key
        self.client_id = client_id
        self.query_id = query_id
        #: The client's handler, called as ``deliver(request)``; ``resume`` is
        #: it, or in a fleet the router's accounting, which calls it first.
        self.deliver = self.resume = deliver
        self.value: object = UNSERVED
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GetRequest #{self.request_id} {self.object_key} "
            f"client={self.client_id} query={self.query_id}>"
        )
