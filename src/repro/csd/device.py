"""The simulated Cold Storage Device.

The device is a single simulation process that mirrors the paper's Swift
middleware: it receives tagged GET requests, consults the layout to find the
disk group of each object, asks the configured I/O scheduler which group to
load, charges the group-switch latency when the loaded group changes, and
then streams objects back to clients one at a time, charging a per-object
transfer time.  Switches, serialized transfers and migration jobs are each one
plain delay inside that process's loop (``yield seconds``: no event, no
sub-generator per switch, object or job).

For every unit of busy time the device appends one :class:`BusyInterval`
(switch, transfer or migration I/O) to its ``busy_intervals`` list — the one
record every after-the-run reader works from: the metrics layer attributes
each client's waiting time to switching vs. data transfer from it (the
breakdown shown in Figure 9 and Table 3 of the paper), and the invariant
checker, the scenario report and the trace exporter read the same list.
The device does one thing at a time, so the log is in time order and
mostly back to back; readers take it in that order, in one pass each, and
a fleet's logs are read device by device, never merged into one sorted
copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from collections import deque

from repro.csd.disk_group import DiskGroupLayout
from repro.csd.object_store import ObjectStore
from repro.csd.request import UNSERVED, GetRequest, MigrationJob
from repro.csd.scheduler import IOScheduler
from repro.exceptions import SimulationError, StorageError
from repro.obs import MetricsRegistry, Tracer
from repro.sim import Environment, Store
from repro.spec_fields import Seconds, Spec


@dataclass
class DeviceConfig(Spec):
    """Tunable parameters of the emulated CSD.

    Transfers are always serialized, as in the paper's middleware: one
    object at a time, whichever client it is for.
    """

    #: Latency of spinning down the loaded group and spinning up another.
    group_switch_seconds: Seconds = 10.0
    #: Time to push one object to a client.
    transfer_seconds_per_object: Seconds = 9.6


#: Migration tokens a throttled device can bank: one, so every migration
#: job after the first waits for its token.
MIGRATION_BURST = 1


class MigrationTokenBucket:
    """Token bucket pacing one device's migration I/O (objects per second).

    Tokens accrue continuously on the simulated clock up to
    :data:`MIGRATION_BURST`; each migration read/write consumes one.  The
    device does all the arithmetic inline, once per job: it refills, takes
    a token if one is there, and otherwise waits ``(1.0 - tokens) / rate``
    (see :meth:`ColdStorageDevice._run`).  All of it is plain float math on
    simulated timestamps, so throttled runs stay exactly deterministic.  The
    rate is a :class:`~repro.fleet.spec.MigrationThrottle`'s, whose declared
    field already holds it positive and finite.
    """

    __slots__ = ("rate", "tokens", "last_refill")

    #: Slack absorbing float drift: after waiting exactly ``(1.0 - tokens) /
    #: rate``, the refill may land at 1 - 1e-16 tokens instead of 1.0;
    #: without the epsilon the device would re-sleep femtosecond intervals
    #: forever.
    EPSILON = 1e-9

    def __init__(self, objects_per_second: float) -> None:
        self.rate = objects_per_second
        self.tokens = float(MIGRATION_BURST)
        self.last_refill = 0.0


class BusyInterval(NamedTuple):
    """One stretch of device activity: a switch, a transfer or migration I/O."""

    start: float
    end: float
    kind: str  # "switch", "transfer" or "migration"
    group_id: int
    client_id: Optional[str] = None
    query_id: Optional[str] = None
    object_key: Optional[str] = None


#: ``_tuple_new(BusyInterval, fields)`` is ``BusyInterval(*fields)`` for all
#: seven fields without the Python frame of the generated ``__new__``:
#: ``_complete`` builds one per served object.
_tuple_new = tuple.__new__


class DeviceStats:
    """Aggregate device counters: plain numbers, bumped in place by the device.

    A device built with a :class:`~repro.obs.metrics.MetricsRegistry`
    publishes :data:`COUNTERS` as ``device.<name>.*``; reports, the invariant
    checker and the registry all read these same attributes.
    """

    #: The numeric fields, in the order :meth:`absorb` sums them.
    COUNTERS = (
        "objects_served",
        "group_switches",
        "requests_received",
        "migration_jobs",
        "migration_seconds",
        "migration_interference_seconds",
        "migration_deferrals",
    )

    __slots__ = COUNTERS + ("objects_per_client",)

    def __init__(self) -> None:
        self.objects_served = 0
        self.group_switches = 0
        self.requests_received = 0
        #: Rebalancing I/O performed by this device (reads + writes of
        #: migrating objects), and the share done while foreground waited.
        self.migration_jobs = 0
        self.migration_seconds = 0.0
        self.migration_interference_seconds = 0.0
        #: Times a queued migration job was set aside for foreground queries
        #: because the throttle's token bucket was empty.
        self.migration_deferrals = 0
        self.objects_per_client: Dict[str, int] = {}

    def absorb(self, other: DeviceStats) -> None:
        """Add another device's counters into this aggregate."""
        for field in self.COUNTERS:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        for client_id, count in other.objects_per_client.items():
            self.objects_per_client[client_id] = (
                self.objects_per_client.get(client_id, 0) + count
            )


class ColdStorageDevice:
    """Simulated MAID-style cold storage device shared by all clients."""

    def __init__(
        self,
        env: Environment,
        object_store: ObjectStore,
        layout: DiskGroupLayout,
        scheduler: IOScheduler,
        config: DeviceConfig,
        metrics: MetricsRegistry,
        migration_throttle: Optional[MigrationTokenBucket] = None,
        name: str = "csd0",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.object_store = object_store
        self.layout = layout
        self.scheduler = scheduler
        self.config = config
        #: Identity used for metric names and trace tracks.
        self.name = name
        #: Tracer for inbox-entry events; ``None`` when tracing is off.
        self.tracer = tracer
        #: Token bucket pacing migration I/O; ``None`` = strict priority.
        self.migration_throttle = migration_throttle
        self.inbox: Store = Store(env, name="csd-inbox")
        #: Rebalancing work (migration reads/writes) served with priority
        #: over foreground GETs, in arrival order.
        self._admin_jobs = deque()
        self.current_group: Optional[int] = None
        #: Every switch, transfer and migration I/O, in completion order
        #: (which is also start order: one at a time).
        self.busy_intervals: List[BusyInterval] = []
        #: Tenant name -> the one copy of it the migration log holds.
        self._tenant_names: Dict[str, str] = {}
        self.stats = DeviceStats()
        metrics.publish(f"device.{name}", self.stats, DeviceStats.COUNTERS)
        metrics.publish(f"device.{name}.scheduler", scheduler, ("num_switches", "max_waiting_seen"))
        env.process(self._run(), name="cold-storage-device")

    # ------------------------------------------------------------------ #
    # Client-facing API
    # ------------------------------------------------------------------ #
    def submit_many(self, requests: Sequence[GetRequest]) -> None:
        """Accept a batch of GETs in order; each is delivered once served.

        All or nothing: the whole batch is validated before anything is
        enqueued, so a :class:`StorageError` leaves the inbox as it was.
        """
        self.validate(requests)
        self.enqueue(requests)

    def validate(self, requests: Sequence[GetRequest]) -> None:
        """Resolve every request's disk group, or raise; nothing is enqueued.

        A request is valid when its object exists and this device's layout
        places it.  The group is resolved here once: the same lookup
        validates placement, and the layout is append-only, so it cannot
        change before the device registers the request.
        """
        exists = self.object_store.exists
        group_if_placed = self.layout.group_if_placed
        for request in requests:
            object_key = request.object_key
            if not exists(object_key):
                raise StorageError(f"request for unknown object {object_key!r}")
            group = group_if_placed(object_key)
            if group is None:
                raise StorageError(f"object {object_key!r} is not placed on any disk group")
            request.disk_group = group

    def enqueue(self, requests: Sequence[GetRequest]) -> None:
        """Hand validated requests to the inbox in one put.

        The second half of :meth:`submit_many`, separate so that a router
        can validate every device's slice of a batch before any of them is
        enqueued.
        """
        if self.tracer is not None:
            for request in requests:
                self.tracer.io_submit(request.query_id, request.object_key, self.name)
        self.inbox.put_many(requests)

    def drain_pending(self) -> List[GetRequest]:
        """Pull every not-yet-served request out of the device (fail-stop).

        Anything still sitting in the inbox is registered first so the
        scheduler's counters see it, then all queued requests are popped in
        scheduling order.  The request being transferred at this instant (if
        any) has already left the queues and completes normally.  The fleet
        router's drain verb (failover, hand-off, admin hatch) is built on it.
        """
        self._drain_inbox()
        drained: List[GetRequest] = []
        while self.scheduler.has_pending():
            for group in self.scheduler.pending_groups():
                while True:
                    request = self.scheduler.next_request(group)
                    if request is None:
                        break
                    drained.append(request)
        return drained

    def submit_migrations(self, jobs: Sequence[MigrationJob]) -> None:
        """Queue a batch of rebalancing I/O in order, in one put; it is
        served before foreground GETs."""
        self.inbox.put_many(jobs)

    def pending_migration_jobs(self) -> int:
        """Rebalancing I/O accepted but not yet performed.

        Normally 0 after a run; a throttle paced slower than the workload
        legitimately leaves jobs queued when the last session completes (the
        data already landed at plan time — only the I/O charge is missing),
        and the report surfaces that count instead of letting the migration
        silently look fully executed.
        """
        return len(self._admin_jobs) + sum(
            1 for item in self.inbox.queued if isinstance(item, MigrationJob)
        )

    def drain_migration_jobs(self) -> List[MigrationJob]:
        """Drop all queued rebalancing I/O (fail-stop).

        A dead device must never perform I/O again: the migration job in
        flight (if any) completes like an in-flight transfer does, but
        everything still queued — in the admin queue or the inbox — is
        withdrawn and returned to the caller, uncharged.
        """
        self._drain_inbox()
        dropped = list(self._admin_jobs)
        self._admin_jobs.clear()
        return dropped

    # ------------------------------------------------------------------ #
    # Device main loop
    # ------------------------------------------------------------------ #
    def _register(self, items) -> None:
        """File inbox items in order: migration work aside, GETs with the scheduler."""
        add_request = self.scheduler.add_request
        received = 0
        for item in items:
            if isinstance(item, MigrationJob):
                self._admin_jobs.append(item)
                continue
            # ``disk_group`` was resolved by ``validate``.
            add_request(item, item.disk_group)
            received += 1
        self.stats.requests_received += received

    def _drain_inbox(self) -> None:
        """Register everything queued in the inbox (a query's whole up-front
        batch lands here at once), in arrival order."""
        self._register(self.inbox.drain())

    def _run(self):
        env = self.env
        inbox = self.inbox
        scheduler = self.scheduler
        has_pending = scheduler.has_pending
        stats = self.stats
        tenant_names = self._tenant_names
        # The fewest tokens that count as one (float drift absorbed).
        token_ready = 1.0 - MigrationTokenBucket.EPSILON
        while True:
            # ``_drain_inbox`` without its frame, here and after each switch
            # and transfer: once per job or GET.  The queue is read through
            # the inbox, not held: the loop outlives the run, and
            # ``Store.release`` replaces an emptied queue.
            if inbox.queued:
                self._register(inbox.drain())
            if self._admin_jobs:
                throttle = self.migration_throttle
                ready = throttle is None
                if not ready:
                    # Refill, then take a token if one is there: the
                    # bucket's arithmetic, inline, once per migration job.
                    # (``min(MIGRATION_BURST, tokens)`` as a comparison: the
                    # same value, no call.  A second refill at one instant
                    # adds ``0.0 * rate``: exact.  The burst is one token, so
                    # taking it leaves ``max(0.0, tokens - 1.0)``: none.)
                    now = env.now
                    tokens = throttle.tokens + (now - throttle.last_refill) * throttle.rate
                    throttle.tokens = tokens if tokens < MIGRATION_BURST else MIGRATION_BURST
                    throttle.last_refill = now
                    if throttle.tokens >= token_ready:
                        throttle.tokens = 0.0
                        ready = True
                if ready:
                    # One rebalancing read/write: one delay, no per-job
                    # generator, and booked inline, no per-job call.
                    job = self._admin_jobs.popleft()
                    interfered = has_pending()
                    start = env.now
                    if job.seconds > 0:
                        yield job.seconds
                    end = env.now
                    # The job *interfered* when foreground work waited at
                    # the device at any point while it ran — the seconds the
                    # rebalance stole from query traffic: sampled before and
                    # after the I/O, since requests arriving mid-job sit in
                    # the inbox.  Only *foreground* arrivals count: the inbox
                    # may also hold a later epoch's MigrationJobs (walked in
                    # place, not copied per job).
                    if not interfered:
                        queued = inbox.queued
                        interfered = has_pending() or (
                            len(queued) > 0
                            and any(isinstance(item, GetRequest) for item in queued)
                        )
                    key = job.object_key
                    group = self.layout.group_if_placed(key)
                    # The key's ``tenant/`` prefix (the store holds no other
                    # keys), as the first job of the tenant spelled it: the
                    # log keeps one string per tenant, not one per job.
                    tenant = key.partition("/")[0]
                    tenant = tenant_names.setdefault(tenant, tenant)
                    self.busy_intervals.append(
                        _tuple_new(
                            BusyInterval,
                            (
                                start,
                                end,
                                "migration",
                                -1 if group is None else group,
                                tenant,
                                job.label,
                                key,
                            ),
                        )
                    )
                    seconds = end - start
                    stats.migration_jobs += 1
                    stats.migration_seconds += seconds
                    if interfered:
                        stats.migration_interference_seconds += seconds
                    job.notify(job, start, end, interfered)
                    continue
                if not has_pending():
                    # Idle apart from throttled migration work: wait for the
                    # bucket to refill OR for a foreground arrival, whichever
                    # comes first — a query arriving mid-wait wakes the
                    # device and (the bucket still being empty) is served
                    # before the migration, as the throttle contract says.
                    # The bucket was refilled at this instant just above.
                    refill = env.timeout((1.0 - throttle.tokens) / throttle.rate)
                    arrival = inbox.get()
                    yield env.any_of([refill, arrival])
                    if arrival.triggered:
                        self._register((arrival.value,))
                    else:
                        # The refill won: withdraw the getter so the next
                        # put is not handed to an event nobody consumes.
                        inbox.cancel(arrival)
                    continue
                # No tokens and queries are waiting: defer the migration I/O
                # and serve foreground work first — the interleaving a
                # strict-priority rebalance denies.
                stats.migration_deferrals += 1
            if not has_pending():
                request = yield inbox
                self._register((request,))
                continue

            # Decide which group to serve next.  The decision is re-evaluated
            # only after the *service set* — the requests pending on the
            # chosen group at decision time — has been fully served
            # (non-preemptive), or after every object for the FCFS policies.
            group = scheduler.choose_next_group(self.current_group)
            if group != self.current_group:
                start = env.now
                if self.config.group_switch_seconds > 0:
                    yield self.config.group_switch_seconds
                self.busy_intervals.append(
                    _tuple_new(BusyInterval, (start, env.now, "switch", group, None, None, None))
                )
                self.current_group = group
                stats.group_switches += 1
                scheduler.notify_switch(group)
                if inbox.queued:
                    self._register(inbox.drain())

            quota = scheduler.service_quota(group)
            next_request = scheduler.next_request
            transfer_seconds = self.config.transfer_seconds_per_object
            while quota > 0:
                request = next_request(group)
                if request is None:
                    break
                # Serialized middleware, served inline: one delay and one
                # completion per object, no per-object generator.
                start = env.now
                if transfer_seconds > 0:
                    yield transfer_seconds
                self._complete(request, group, start, env.now)
                # An idle device must not pin the last request it served
                # (nor, through it, the payload).
                request = None
                quota -= 1
                if inbox.queued:
                    self._register(inbox.drain())

    def _complete(self, request: GetRequest, group: int, start: float, end: float) -> None:
        if request.value is not UNSERVED:
            raise SimulationError(f"GET {request.object_key!r} was served twice")
        client_id = request.client_id
        self.busy_intervals.append(
            _tuple_new(
                BusyInterval,
                (start, end, "transfer", group, client_id, request.query_id, request.object_key),
            )
        )
        stats = self.stats
        stats.objects_served += 1
        per_client = stats.objects_per_client
        per_client[client_id] = per_client.get(client_id, 0) + 1
        # The request is its own completion, scheduled at this instant.
        request.value = self.object_store.get(request.object_key)
        env = self.env
        env.buckets[env.now].append(request)
