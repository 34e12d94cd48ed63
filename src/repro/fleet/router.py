"""The fleet router: one addressable storage service over N devices.

The router composes N independent :class:`~repro.csd.device.ColdStorageDevice`
instances — each with its own disk-group layout, its own I/O scheduler and
its own (possibly heterogeneous) :class:`~repro.csd.device.DeviceConfig` —
behind the exact ``submit()`` interface clients already speak, so executors
and client proxies are oblivious to whether they talk to one device or to a
sharded fleet.

Responsibilities:

* **Routing** — every GET is dispatched to one live replica of its object,
  chosen by the replica policy: primary-first, least-loaded (queue length),
  ewma-latency (smoothed service time × queue depth) or weighted (queue
  depth discounted by capacity weight).  Completions feed a per-device
  latency EWMA in simulated time, so adaptive policies stay deterministic.
* **Load-aware placement** — capacity weights (static speed factors under
  ``weighting="profile"``, or observed service rates when the feedback
  rebalancer triggers) size each device's vnode share on the consistent-hash
  ring; an all-equal-weight fleet is byte-identical to an unweighted one.
* **Membership** — the device roster is epoch-versioned
  (:class:`~repro.fleet.membership.FleetMembership`): a
  :class:`~repro.fleet.spec.DeviceJoin` or
  :class:`~repro.fleet.spec.DeviceLeave` advances the epoch, deterministically
  recomputes the consistent-hash placement over the new roster and executes
  the **minimal migration plan** — only keys whose replica set changed move,
  with the migration I/O charged to the source and destination devices as
  priority work that measurably interferes with foreground traffic.
* **Failover / handoff** — when a device fails (fail-stop) its queued
  requests are pulled back and re-routed to surviving replicas; when a
  device leaves gracefully its queue is handed off to the new owners of its
  keys.  Nothing is lost in either case.
* **Aggregation** — per-device busy-interval streams are merged (ordered by
  completion) for the metrics layer, and per-device counters are combined
  into fleet-level statistics.  The scenario-report sections built from that
  state live in :mod:`repro.fleet.report`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.metrics import imbalance_coefficient
from repro.csd.device import (
    BusyInterval,
    ColdStorageDevice,
    DeviceConfig,
    DeviceStats,
    MigrationTokenBucket,
)
from repro.csd.layout import LayoutPolicy, extend_layout_with_keys
from repro.csd.object_store import ObjectStore, split_object_key
from repro.csd.request import GetRequest, MigrationJob
from repro.csd.scheduler import IOScheduler
from repro.exceptions import ConfigurationError, FleetError, StorageError
from repro.fleet.membership import FleetMembership, MemberRecord
from repro.fleet.migration import MigrationPlan, plan_migration
from repro.obs import NULL_TRACER, CounterView, Ewma, MetricsRegistry
from repro.fleet.placement import (
    ConsistentHashPlacement,
    build_placement,
    normalize_weights,
)
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    FleetSpec,
    RebalancePolicy,
    SetReplication,
    device_name,
)
from repro.sim import Environment, Event

SchedulerFactory = Callable[[], IOScheduler]

#: ``least-loaded``'s score, read without a Python frame per replica.
_OUTSTANDING = attrgetter("outstanding")
#: Completion order of merged busy intervals (one key per served object).
_END_THEN_START = attrgetter("end", "start")


@dataclass
class FleetMember:
    """One device of the fleet plus the router's book-keeping about it."""

    device_id: str
    index: int
    #: ``None`` when the placement put no objects on this device (it then
    #: spins idle for the whole run but still appears in fleet metrics).
    device: Optional[ColdStorageDevice]
    object_keys: Tuple[str, ...]
    #: Per-device EWMA of request latency (routed → completed), in simulated
    #: seconds; feeds the ``ewma-latency`` policy and the rebalancer.
    ewma: Ewma
    alive: bool = True
    failed_at: Optional[float] = None
    joined_at: float = 0.0
    left_at: Optional[float] = None
    #: Requests routed to this device (including later failed-over ones).
    requests_routed: int = 0
    #: Routed but not yet completed (drives the least-loaded policy).
    outstanding: int = 0
    #: Normalised capacity weight (1.0 on a uniform ring); sizes the device's
    #: vnode share and divides its queue under the ``weighted`` policy.
    weight: float = 1.0
    #: Sum of completed-request latencies (mean = sum / ewma.count).
    latency_sum: float = 0.0

    def busy_seconds(self) -> float:
        if self.device is None:
            return 0.0
        return self.device.busy_intervals.total_duration()

    def window_busy(self, start: float, end: float) -> float:
        """Busy seconds inside the window ``[start, end]``."""
        if self.device is None:
            return 0.0
        return self.device.busy_intervals.window_overlap(start, end)

    def objects_served(self) -> int:
        return self.device.stats.objects_served if self.device else 0

    def pending_requests(self) -> int:
        return self.device.scheduler.pending_count() if self.device else 0


class FleetRouterStats:
    """Fleet-wide counters, registered as ``router.*`` metrics.

    The values live in the (shared or private)
    :class:`~repro.obs.metrics.MetricsRegistry`; report code and tests read
    and write them as plain numbers through the
    :class:`~repro.obs.metrics.CounterView` attributes.
    """

    requests_routed = CounterView()
    failed_over = CounterView()
    handed_off = CounterView()
    dropped_migration_jobs = CounterView()
    choice_primary = CounterView()
    choice_diverted = CounterView()

    __slots__ = (
        "metrics",
        "per_tenant_device_served",
        "_requests_routed",
        "_failed_over",
        "_handed_off",
        "_dropped_migration_jobs",
        "_choice_primary",
        "_choice_diverted",
        "request_latency",
    )

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self._requests_routed = registry.counter("router.requests_routed")
        self._failed_over = registry.counter("router.failed_over_requests")
        #: Requests handed off from a gracefully leaving device's queue.
        self._handed_off = registry.counter("router.handed_off_requests")
        #: Migration jobs withdrawn from a fail-stopped device's queue (a
        #: dead device performs no further I/O, so its pending rebalance
        #: work is dropped uncharged).
        self._dropped_migration_jobs = registry.counter(
            "router.dropped_migration_jobs"
        )
        #: Replica-choice split: requests served by their placement primary
        #: vs diverted to another replica by the replica policy.
        self._choice_primary = registry.counter("router.replica_choice.primary")
        self._choice_diverted = registry.counter("router.replica_choice.diverted")
        #: Fleet-wide routed→completed latency (simulated seconds); its raw
        #: samples back the p50/p95/p99 figures in the routing report section.
        self.request_latency = registry.histogram("router.request_latency_seconds")
        self.per_tenant_device_served: Dict[str, Dict[str, int]] = {}


class FleetRouter:
    """Dispatches GET requests across a sharded, replicated, elastic fleet."""

    def __init__(
        self,
        env: Environment,
        object_store: ObjectStore,
        client_objects: Mapping[str, Sequence[str]],
        fleet_spec: FleetSpec,
        layout_policy: LayoutPolicy,
        scheduler_factory: SchedulerFactory,
        device_config: Optional[DeviceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.env = env
        self.object_store = object_store
        self.spec = fleet_spec
        #: Registry shared with the devices (``None`` = each its own).
        self._metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = FleetRouterStats(metrics)
        self.layout_policy = layout_policy
        self.scheduler_factory = scheduler_factory
        #: Epoch-versioned roster: who is in the fleet, with which config.
        self.membership = FleetMembership(
            fleet_spec, device_config or DeviceConfig()
        )
        #: Routed, not yet completed requests by their completion event —
        #: how the one shared completion handler finds its request without a
        #: closure per request or a completion → request reference cycle.
        self._in_flight: Dict[Event, GetRequest] = {}
        #: Migration plans executed so far, one per join/leave epoch.
        self.migration_plans: List[MigrationPlan] = []

        # Preserve each client's object order; placement recomputes and
        # per-device subsets all derive from this one ordering.
        self.client_objects: Dict[str, List[str]] = {
            client: list(keys) for client, keys in client_objects.items()
        }
        self._key_order: List[str] = [
            key for keys in self.client_objects.values() for key in keys
        ]
        #: key -> position in the canonical ordering; lets plan execution
        #: sort a plan's gained keys in O(M log M) instead of rescanning
        #: every client's full key list per gaining device.
        self._key_rank: Dict[str, int] = {
            key: rank for rank, key in enumerate(self._key_order)
        }
        self._policy = build_placement(
            fleet_spec.placement,
            fleet_spec.replication,
            virtual_nodes=fleet_spec.virtual_nodes,
        )
        self.members: List[FleetMember] = []
        self._member_by_id: Dict[str, FleetMember] = {}
        #: Raw (un-normalised) capacity weights the weighted ring is built
        #: from: static speed factors under ``weighting="profile"``, observed
        #: 1/EWMA-latency rates once the feedback rebalancer triggers.
        #: Empty = uniform ring (every device gets ``virtual_nodes`` vnodes).
        self._raw_weights: Dict[str, float] = {}
        #: Weights normalised over the current roster (mean 1.0), as
        #: installed on the ring; mirrored onto ``FleetMember.weight``.
        self._member_weights: Dict[str, float] = {}
        if fleet_spec.weighting == "profile":
            for record in self.membership.records:
                self._raw_weights[record.device_id] = self._profile_weight(
                    record.config
                )
        self._install_weights(list(fleet_spec.device_ids))
        #: Replication factor the current placement was computed at (tracks
        #: ``SetReplication`` events and repair under device loss).
        self.placement_replication = fleet_spec.replication
        #: Key population as (hash, key) pairs sorted by hash — computed
        #: once (key hashes never change): the initial bulk placement sweeps
        #: this sorted list and every epoch change walks changed ring arcs
        #: instead of re-placing all keys.
        #: object key -> replica device ids, primary first (current epoch).
        if isinstance(self._policy, ConsistentHashPlacement):
            self._sorted_key_hashes: List[Tuple[int, str]] = sorted(
                zip(self._policy.bulk_key_hashes(self._key_order), self._key_order)
            )
            self.placement: Dict[str, Tuple[str, ...]] = self._policy.place(
                self._key_order,
                list(fleet_spec.device_ids),
                sorted_key_hashes=self._sorted_key_hashes,
            )
            #: Per-device vnode counts the current placement's ring used,
            #: aligned with ``placement_roster``; epoch diffs pass the old
            #: and new counts so weighted rings diff correctly.
            self.placement_vnode_counts: Tuple[int, ...] = (
                self._policy.vnode_counts(list(fleet_spec.device_ids))
            )
        else:
            self._sorted_key_hashes = []
            self.placement = self._policy.place(
                self._key_order, list(fleet_spec.device_ids)
            )
            self.placement_vnode_counts = ()
        #: Roster the current placement was computed over; paired with
        #: ``placement_replication`` it identifies the old epoch's ring for
        #: incremental placement diffs.
        self.placement_roster: Tuple[str, ...] = tuple(fleet_spec.device_ids)
        #: (first canonical rank, client) per client with keys, ascending —
        #: binary-searching a key's rank recovers its owning client without a
        #: per-key map (canonical order is client-major).
        self._client_spans: List[Tuple[int, str]] = []
        rank = 0
        for client, keys in self.client_objects.items():
            if keys:
                self._client_spans.append((rank, client))
                rank += len(keys)
        self._client_span_starts: List[int] = [
            start for start, _client in self._client_spans
        ]
        #: Per-epoch replication health: under-replicated key counts sampled
        #: when each epoch opened (before its plan ran) and after.
        self.replication_log: List[Dict[str, object]] = []
        #: Feedback-rebalancer tick log: one entry per controller interval
        #: (imbalance observed, whether a reweight fired, and why not).
        self.rebalance_log: List[Dict[str, object]] = []

        subsets = self._invert_placement()
        for record in self.membership.records:
            self._create_member(record, subsets.get(record.device_id, {}))

        #: Failure/membership processes; their exceptions would otherwise be
        #: recorded on the process event with no waiter and silently lost,
        #: so the service re-raises them after (or instead of) a stuck run.
        self.admin_processes = []
        for failure in fleet_spec.failures:
            self.admin_processes.append(
                env.process(
                    self._fail_device(failure), name=f"fleet-failure:{failure.device}"
                )
            )
        for event in fleet_spec.events:
            if isinstance(event, SetReplication):
                name = f"fleet-set-replication:{event.replication}"
            else:
                kind = "join" if isinstance(event, DeviceJoin) else "leave"
                name = f"fleet-{kind}:{event.device}"
            self.admin_processes.append(
                env.process(self._membership_event(event), name=name)
            )
        if fleet_spec.rebalance is not None:
            self.admin_processes.append(
                env.process(
                    self._rebalance_controller(fleet_spec.rebalance),
                    name="fleet-rebalancer",
                )
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _profile_weight(self, config: DeviceConfig) -> float:
        """Static capacity weight of a device: its speed-up over the base
        config's transfer rate (a device twice as fast weighs 2.0)."""
        base = self.membership.base_config.transfer_seconds_per_object
        if base <= 0 or config.transfer_seconds_per_object <= 0:
            raise ConfigurationError(
                "profile weighting requires positive transfer_seconds_per_object "
                f"(base={base!r}, device={config.transfer_seconds_per_object!r})"
            )
        return base / config.transfer_seconds_per_object

    def _install_weights(self, roster: Sequence[str]) -> None:
        """(Re-)normalise the raw weights over ``roster`` onto the ring.

        Normalisation is always over the devices actually in the roster, so
        a join or leave re-centres everyone's weight around mean 1.0 — the
        property that keeps an all-equal fleet byte-identical to an
        unweighted one.  A no-op on uniform fleets and non-ring placements.
        """
        if not self._raw_weights or not isinstance(
            self._policy, ConsistentHashPlacement
        ):
            return
        subset = {
            device_id: self._raw_weights[device_id]
            for device_id in roster
            if device_id in self._raw_weights
        }
        weights = normalize_weights(subset) if subset else {}
        self._policy.set_weights(weights if weights else None)
        self._member_weights = weights
        for member in self.members:
            member.weight = weights.get(member.device_id, 1.0)

    def _holds_object(self, device_id: str, object_key: str) -> bool:
        """Whether ``device_id`` already physically stores ``object_key``."""
        member = self._member_by_id.get(device_id)
        return (
            member is not None
            and member.device is not None
            and member.device.layout.has_object(object_key)
        )

    def _invert_placement(self) -> Dict[str, Dict[str, List[str]]]:
        """Current-placement keys of every device, grouped by client.

        One walk of the canonical key order, appending each key to its
        replicas' per-client lists: clients land in first-seen order with
        keys in client order, in O(K·R) total.
        """
        subsets: Dict[str, Dict[str, List[str]]] = {}
        placement = self.placement
        for client, keys in self.client_objects.items():
            for key in keys:
                for device_id in placement[key]:
                    per_client = subsets.setdefault(device_id, {})
                    bucket = per_client.get(client)
                    if bucket is None:
                        per_client[client] = [key]
                    else:
                        bucket.append(key)
        return subsets

    def _client_of_key(self, object_key: str) -> str:
        """Owning client of a placed key, via its canonical rank."""
        rank = self._key_rank[object_key]
        span = bisect_right(self._client_span_starts, rank) - 1
        return self._client_spans[span][1]

    def _make_throttle(self) -> Optional[MigrationTokenBucket]:
        """Fresh per-device token bucket, or ``None`` for strict priority."""
        throttle = self.spec.throttle
        if throttle is None:
            return None
        return MigrationTokenBucket(throttle.objects_per_second, throttle.burst)

    def _build_device(
        self, record: MemberRecord, subset: Mapping[str, Sequence[str]]
    ) -> ColdStorageDevice:
        """The device of ``record``, laid out over its per-client ``subset``."""
        return ColdStorageDevice(
            env=self.env,
            object_store=self.object_store,
            layout=self.layout_policy.build(subset),
            scheduler=self.scheduler_factory(),
            config=record.config,
            migration_throttle=self._make_throttle(),
            name=record.device_id,
            metrics=self._metrics,
            tracer=self.tracer,
        )

    def _create_member(
        self, record: MemberRecord, subset: Mapping[str, Sequence[str]]
    ) -> FleetMember:
        member = FleetMember(
            device_id=record.device_id,
            index=record.index,
            device=self._build_device(record, subset) if subset else None,
            object_keys=tuple(key for keys in subset.values() for key in keys),
            joined_at=record.joined_at,
            weight=self._member_weights.get(record.device_id, 1.0),
            ewma=Ewma(self.spec.ewma_alpha),
        )
        self.members.append(member)
        self._member_by_id[record.device_id] = member
        return member

    # ------------------------------------------------------------------ #
    # Client-facing API (same shape as ColdStorageDevice)
    # ------------------------------------------------------------------ #
    def submit_many(self, requests: Sequence[GetRequest]) -> None:
        """Route a batch of GETs, each to a live replica of its object.

        Replicas are resolved in request order — ``outstanding`` moves with
        every choice, so the load-aware policies decide exactly as they
        would one request at a time — and each device then receives its
        slice of the batch in one inbox put, devices in first-seen order.
        All or nothing: every slice is validated by its device before any
        counter or inbox moves, so a rejected batch leaves no trace (in
        particular no ``outstanding`` for ``least-loaded`` to read forever).
        """
        choose = self._choose_replica
        placement = self.placement
        members = self._member_by_id
        primary_first = self.spec.replica_policy == "primary-first"
        slices: Dict[str, List[GetRequest]] = {}
        primary = 0
        try:
            for request in requests:
                replicas = placement.get(request.object_key)
                if replicas is None:
                    raise FleetError(
                        f"object {request.object_key!r} is not placed on any device"
                    )
                member = members[replicas[0]]
                # A healthy primary under primary-first needs no decision.
                if not (primary_first and member.alive):
                    member = choose(replicas, request.object_key)
                member.outstanding += 1
                device_id = member.device_id
                batch = slices.get(device_id)
                if batch is None:
                    slices[device_id] = [request]
                else:
                    batch.append(request)
                if device_id == replicas[0]:
                    primary += 1
            routed = [(members[device_id], batch) for device_id, batch in slices.items()]
            for member, batch in routed:
                member.device.validate(batch)
        except (FleetError, StorageError):
            for device_id, batch in slices.items():
                members[device_id].outstanding -= len(batch)
            raise
        now = self.env._now
        in_flight = self._in_flight
        on_complete = self._on_complete
        for member, batch in routed:
            member.requests_routed += len(batch)
            for request in batch:
                request.routed_at = now
                # One callback per request, however often it is re-routed;
                # ``request.owner`` points at whichever member is actually
                # serving it now.
                if request.owner is None:
                    completion = request.completion
                    in_flight[completion] = request
                    completion._callbacks.append(on_complete)
                request.owner = member
        stats = self.stats
        stats._requests_routed.value += len(requests)
        stats._choice_primary.value += primary
        stats._choice_diverted.value += len(requests) - primary
        if self.tracer.enabled:
            self._trace_routes(requests, routed)
        for member, batch in routed:
            member.device.enqueue(batch)

    def submit(self, request: GetRequest) -> GetRequest:
        """Route one request (a batch of one)."""
        self.submit_many((request,))
        return request

    def get(self, object_key: str, client_id: str, query_id: str) -> GetRequest:
        """Convenience wrapper building and submitting a request."""
        request = GetRequest(
            object_key=object_key,
            client_id=client_id,
            query_id=query_id,
            completion=self.env.event(name=object_key),
        )
        return self.submit(request)

    def _trace_routes(
        self,
        requests: Sequence[GetRequest],
        routed: Sequence[Tuple[FleetMember, Sequence[GetRequest]]],
    ) -> None:
        """One ``route`` event per request, in request order, each with the
        queue depth its choice left behind."""
        depth = {member.device_id: member.outstanding - len(batch) for member, batch in routed}
        epoch = self.membership.epoch
        policy = self.spec.replica_policy
        for request in requests:
            device_id = request.owner.device_id
            depth[device_id] += 1
            self.tracer.route(
                request.query_id, request.object_key, device_id, epoch, policy, depth[device_id]
            )

    def _on_complete(self, completion: Event) -> None:
        """Account one completed GET (the one handler every routed request's
        completion shares; the request is looked up from the completion)."""
        in_flight = self._in_flight
        request = in_flight.pop(completion)
        if not in_flight:
            # Drained: give back the table a burst grew (a dict never shrinks
            # on its own, and an up-front batch sizes it for a whole query).
            in_flight.clear()
        member = request.owner
        request.owner = None
        if not isinstance(member, FleetMember):  # pragma: no cover - defensive
            raise FleetError(
                f"request #{request.request_id} completed without a routed owner"
            )
        member.outstanding -= 1
        if member.outstanding < 0:
            raise FleetError(
                f"device {member.device_id!r} completed more requests "
                "than were routed to it (outstanding went negative)"
            )
        if request.routed_at is not None:
            # Routed→completed latency on the *final* owner (failover
            # re-stamps routed_at, so a re-routed request charges only
            # its last leg — the one this device actually served).
            latency = self.env._now - request.routed_at
            member.ewma.observe(latency)
            member.latency_sum += latency
            self.stats.request_latency.observe(latency)
        tenant = request.object_key.partition("/")[0]
        per_device = self.stats.per_tenant_device_served.setdefault(tenant, {})
        per_device[member.device_id] = per_device.get(member.device_id, 0) + 1

    def _choose_replica(self, replicas: Sequence[str], object_key: str) -> FleetMember:
        """The live member of ``replicas`` the replica policy picks right now."""
        members = self._member_by_id
        policy = self.spec.replica_policy
        live = [
            members[device_id]
            for device_id in replicas
            if members[device_id].alive
        ]
        if not live:
            raise FleetError(
                f"every replica of {object_key!r} is dead ({', '.join(replicas)})"
            )
        # ``min`` keeps the first of equally scored members and ``live`` is
        # in replica order, so every policy degrades to primary-first on
        # ties (deterministic either way).
        if policy == "least-loaded":
            return min(live, key=_OUTSTANDING)
        if policy == "ewma-latency":
            # Expected wait: smoothed service time × queue depth.  An
            # unsampled device scores 0.0, so cold replicas get probed
            # before the EWMA starts steering traffic.
            return min(
                live,
                key=lambda member: member.ewma.value_or(0.0) * (member.outstanding + 1),
            )
        if policy == "weighted":
            # Queue depth discounted by capacity: a device weighing 2.0
            # absorbs twice the outstanding work before being passed over.
            return min(live, key=lambda member: member.outstanding / member.weight)
        return live[0]

    # ------------------------------------------------------------------ #
    # Failure handling (fail-stop: epoch advances; with ``repair`` the lost
    # replicas are re-created on surviving owners as charged migration I/O)
    # ------------------------------------------------------------------ #
    def _fail_device(self, failure: DeviceFailure):
        if failure.at_seconds > 0:
            yield self.env.timeout(failure.at_seconds)
        member = self._member_by_id[device_name(failure.device)]
        self.membership.fail(member.device_id, self.env.now)
        member.alive = False
        member.failed_at = self.env.now
        device = member.device
        # Fail-stop at a request boundary: the transfer in flight (if any)
        # completes normally, everything still queued fails over — and any
        # migration I/O still queued on the corpse is dropped outright (a
        # dead device performs no further reads or writes, ever).
        drained: List[GetRequest] = []
        if device is not None:
            drained = device.drain_pending()
            member.outstanding -= len(drained)
            self.stats._failed_over.inc(len(drained))
            self.stats._dropped_migration_jobs.inc(len(device.drain_migration_jobs()))
        if self.spec.repair and self.membership.replication >= 2:
            # Read-repair: re-place over the survivors and re-create the dead
            # device's replicas from live sources, so the fleet returns to R
            # live replicas per key instead of silently staying degraded.
            self._rebalance("repair", member.device_id, reason="repair")
        else:
            self._record_replication_health("failure")
        self.submit_many(drained)

    # ------------------------------------------------------------------ #
    # Membership events (joins / graceful leaves → epoch + migration)
    # ------------------------------------------------------------------ #
    def _membership_event(self, event):
        if event.at_seconds > 0:
            yield self.env.timeout(event.at_seconds)
        if isinstance(event, DeviceJoin):
            self._apply_join(event)
        elif isinstance(event, DeviceLeave):
            self._apply_leave(event)
        elif isinstance(event, SetReplication):
            self._apply_set_replication(event)
        else:  # pragma: no cover - spec validation rejects other types
            raise FleetError(f"unknown membership event {event!r}")

    def _apply_join(self, event: DeviceJoin) -> None:
        record = self.membership.join(event, self.env.now)
        if self.spec.weighting == "profile":
            # The joiner's speed factor enters the raw weight set here; the
            # rebalance below re-normalises over the whole serving roster.
            self._raw_weights[record.device_id] = self._profile_weight(record.config)
        self._create_member(record, {})
        self._rebalance("join", record.device_id)

    def _apply_leave(self, event: DeviceLeave) -> None:
        device_id = device_name(event.device)
        member = self._member_by_id.get(device_id)
        if member is None or not member.alive:
            raise FleetError(f"device {device_id!r} cannot leave: not a live member")
        self.membership.leave(device_id, self.env.now)
        member.alive = False
        member.left_at = self.env.now
        # Hand the leaver's queue off *after* the placement recompute so the
        # drained requests land on their new owners; the in-flight transfer
        # (if any) completes on the leaver, exactly like fail-stop drains.
        drained: List[GetRequest] = []
        if member.device is not None:
            drained = member.device.drain_pending()
            member.outstanding -= len(drained)
            self.stats._handed_off.inc(len(drained))
        self._rebalance("leave", device_id)
        self.submit_many(drained)

    def _apply_set_replication(self, event: SetReplication) -> None:
        """Raise or lower R: re-replicate (R up) or trim (R down) the
        affected keys, as one epoch with its own migration plan."""
        self.membership.set_replication(event.replication, self.env.now)
        self._rebalance("set-replication", "fleet", reason="replicate")

    # ------------------------------------------------------------------ #
    # Feedback rebalancer (periodic controller → reweight epochs)
    # ------------------------------------------------------------------ #
    def _rebalance_controller(self, policy: RebalancePolicy):
        """Periodic imbalance check; runs for the life of the simulation.

        The process never terminates on its own — ``run(until=...)`` simply
        stops dispatching its timeouts once the target event fires, so ticks
        scheduled past the end of the workload never happen.
        """
        window_start = 0.0
        while True:
            yield self.env.timeout(policy.interval_seconds)
            self._rebalance_tick(policy, window_start, self.env.now)
            window_start = self.env.now

    def _rebalance_tick(
        self, policy: RebalancePolicy, window_start: float, now: float
    ) -> None:
        """One controller decision over the busy window just ended.

        Imbalance is measured as the coefficient of variation of per-device
        busy seconds inside the window.  Past the threshold, target weights
        are set proportional to observed service rate (1 / latency EWMA) —
        a device answering twice as fast earns twice the arc share — and a
        ``reweight`` epoch migrates the placement to the new ring through
        the ordinary throttled-migration machinery.  Every tick appends a
        log entry stating what it saw and why it did (or did not) act.
        """
        serving = [
            self._member_by_id[device_id]
            for device_id in self.membership.serving_ids()
        ]
        busy = [member.window_busy(window_start, now) for member in serving]
        imbalance = imbalance_coefficient(busy)
        entry: Dict[str, object] = {
            "at_seconds": now,
            "window_start": window_start,
            "epoch": self.membership.epoch,
            "imbalance_coefficient": imbalance,
            "triggered": False,
            "outcome": "below-threshold",
        }
        if imbalance > policy.imbalance_threshold:
            if any(
                member.ewma.count == 0 or member.ewma.value <= 0
                for member in serving
            ):
                # A device nobody has completed a request on yet has no
                # observed rate; acting on a half-sampled fleet would swing
                # weights on noise, so the controller waits a window.
                entry["outcome"] = "insufficient-samples"
            else:
                raw = {
                    member.device_id: 1.0 / member.ewma.value for member in serving
                }
                target = normalize_weights(raw)
                current = {
                    member.device_id: self._member_weights.get(member.device_id, 1.0)
                    for member in serving
                }
                delta = max(
                    abs(target[device_id] - current[device_id])
                    for device_id in target
                )
                entry["max_weight_delta"] = delta
                if delta < policy.min_weight_delta:
                    entry["outcome"] = "weights-stable"
                else:
                    self._raw_weights = raw
                    self.membership.reweight(now)
                    self._rebalance("reweight", "fleet", reason="reweight")
                    entry["triggered"] = True
                    entry["outcome"] = "reweighted"
                    entry["weights"] = {
                        device_id: target[device_id] for device_id in sorted(target)
                    }
        self.rebalance_log.append(entry)

    def under_replicated_count(self, placement: Mapping[str, Sequence[str]]) -> int:
        """Keys with fewer live replicas than the current target."""
        target = self.effective_replication
        alive = {member.device_id for member in self.members if member.alive}
        count = 0
        for replicas in placement.values():
            # A key's replicas are distinct devices, so the live ones are
            # the intersection — counted without a frame per key or replica.
            if len(alive.intersection(replicas)) < target:
                count += 1
        return count

    def _record_replication_health(
        self, kind: str, at_open: Optional[int] = None, after: Optional[int] = None
    ) -> None:
        """Append one per-epoch replication-health sample.

        ``under_replicated_at_open`` is the count the instant the epoch
        opened — for a failure, the degradation the loss itself caused;
        ``under_replicated_after_plan`` is what remained once the epoch's
        plan ran (unchanged when no plan ran, e.g. repair disabled).  A
        caller that already counted ``after`` passes it in.
        """
        if after is None:
            after = self.under_replicated_count(self.placement)
        self.replication_log.append(
            {
                "epoch": self.membership.epoch,
                "at_seconds": self.env.now,
                "kind": kind,
                "replication": self.membership.replication,
                "under_replicated_at_open": after if at_open is None else at_open,
                "under_replicated_after_plan": after,
            }
        )

    def _rebalance(self, kind: str, device_id: str, reason: str = "rebalance") -> None:
        """Advance placement to the new epoch and execute the minimal plan."""
        epoch_record = self.membership.epoch_log[-1]
        old_placement = self.placement
        under_replicated_before = self.under_replicated_count(old_placement)
        # The effective factor adapts to the roster: a repair pass after a
        # loss can only restore min(R, serving) replicas per key.
        replication = self.effective_replication
        old_replication = self.placement_replication
        self._policy.replication = replication
        serving = list(self.membership.serving_ids())
        changed_keys: Optional[List[str]] = None
        new_vnode_counts: Tuple[int, ...] = ()
        if isinstance(self._policy, ConsistentHashPlacement):
            # The old ring's vnode counts are snapshotted; re-normalising
            # the weights over the new roster (and any reweight that led
            # here) yields the new counts, and the diff walks both rings.
            old_vnode_counts = self.placement_vnode_counts
            self._install_weights(serving)
            new_vnode_counts = self._policy.vnode_counts(serving)
            # Only the keys in ring arcs whose replica tuple changed need
            # re-placing; everything else keeps its entry from the old epoch.
            changed = self._policy.diff_keys(
                self._sorted_key_hashes,
                self.placement_roster,
                serving,
                old_replication,
                replication,
                old_vnode_counts=old_vnode_counts,
                new_vnode_counts=new_vnode_counts,
            )
            new_placement = dict(old_placement)
            new_placement.update(changed)
            # Only changed keys can change health: no second full scan.
            under_replicated_after: Optional[int] = (
                under_replicated_before
                - self.under_replicated_count({key: old_placement[key] for key in changed})
                + self.under_replicated_count(changed)
            )
            # The plan must see changed keys in canonical key order (what a
            # full placement scan iterates), not hash order.
            changed_keys = sorted(changed, key=self._key_rank.__getitem__)
        else:
            new_placement = self._policy.place(self._key_order, serving)
            under_replicated_after = None
        alive = {member.device_id: member.alive for member in self.members}
        plan = plan_migration(
            epoch=epoch_record.epoch,
            at_seconds=self.env.now,
            kind=kind,
            device_id=device_id,
            old_placement=old_placement,
            new_placement=new_placement,
            alive=alive,
            devices_before=epoch_record.devices_before,
            devices_after=epoch_record.devices_after,
            replication=replication,
            hash_minimal=self.spec.placement == "consistent-hash",
            # Layouts are append-only, so a device that held a key in an
            # earlier epoch still physically has it: re-adopting such a
            # replica costs no migration I/O.
            resident=self._holds_object,
            changed_keys=changed_keys,
        )
        self.placement = new_placement
        self.placement_replication = replication
        self.placement_roster = tuple(serving)
        self.placement_vnode_counts = new_vnode_counts
        self._execute_plan(plan, reason=reason)
        self.migration_plans.append(plan)
        self._record_replication_health(
            kind, at_open=under_replicated_before, after=under_replicated_after
        )

    def _execute_plan(self, plan: MigrationPlan, reason: str = "rebalance") -> None:
        """Extend destination layouts and charge the migration I/O."""
        gained: Dict[str, List[str]] = {}
        for move in plan.moves:
            gained.setdefault(move.dest, []).append(move.object_key)
        # Destinations in roster order: deterministic layout/group assignment.
        for member in self.members:
            keys = gained.get(member.device_id)
            if not keys:
                continue
            # Keys in client order, mirroring how initial layouts are built
            # (the precomputed rank map keeps this O(M log M) per device
            # instead of a scan over every client's full key list).
            ordered = sorted(keys, key=self._key_rank.__getitem__)
            if member.device is None:
                # A device with no ColdStorageDevice held nothing before, so
                # its gained keys are exactly its subset of the (already
                # updated) current placement: group them by owning client
                # (``ordered`` is canonical — client-major — so clients land
                # in first-seen order with keys in client order, matching
                # what a full placement scan would build).
                subset: Dict[str, List[str]] = {}
                for key in ordered:
                    client = self._client_of_key(key)
                    bucket = subset.get(client)
                    if bucket is None:
                        subset[client] = [key]
                    else:
                        bucket.append(key)
                member.device = self._build_device(
                    self.membership.record(member.device_id), subset
                )
            else:
                extend_layout_with_keys(member.device.layout, ordered)
            member.object_keys = member.object_keys + tuple(ordered)

        def _account(job: MigrationJob, start: float, end: float, _interfered: bool,
                     plan: MigrationPlan = plan) -> None:
            plan.migration_seconds += end - start

        for move in plan.moves:
            source = self._member_by_id.get(move.source)
            dest = self._member_by_id[move.dest]
            if source is not None and source.device is not None:
                source.device.submit_migration(
                    MigrationJob(
                        object_key=move.object_key,
                        direction="read",
                        seconds=source.device.config.transfer_seconds_per_object,
                        epoch=plan.epoch,
                        reason=reason,
                        notify=_account,
                    )
                )
            dest.device.submit_migration(
                MigrationJob(
                    object_key=move.object_key,
                    direction="write",
                    seconds=dest.device.config.transfer_seconds_per_object,
                    epoch=plan.epoch,
                    reason=reason,
                    notify=_account,
                )
            )

    def raise_admin_failure(self) -> None:
        """Re-raise the first exception a failure/membership process died of."""
        for process in self.admin_processes:
            if process.exception is not None:
                raise process.exception

    # ------------------------------------------------------------------ #
    # Aggregated views for the metrics / invariants layers
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Current membership epoch (0 until the first membership change)."""
        return self.membership.epoch

    @property
    def effective_replication(self) -> int:
        """Replicas per key the current roster can actually sustain."""
        return min(self.membership.replication, len(self.membership.serving_ids()))

    @property
    def busy_intervals(self) -> List[BusyInterval]:
        """All devices' busy intervals merged in completion order."""
        merged: List[BusyInterval] = []
        for member in self.members:
            if member.device is not None:
                merged.extend(member.device.busy_intervals)
        merged.sort(key=_END_THEN_START)
        return merged

    @property
    def device_stats(self) -> DeviceStats:
        """Fleet-wide counters in the single-device stats shape."""
        combined = DeviceStats(name="fleet")
        for member in self.members:
            if member.device is not None:
                combined.absorb(member.device.stats)
        return combined

    def scheduler_switches(self) -> int:
        """Total scheduler-reported group switches across the fleet."""
        return sum(
            member.device.scheduler.num_switches
            for member in self.members
            if member.device is not None
        )

    def max_waiting_seen(self) -> int:
        """Worst per-query waiting counter reached on any device."""
        waits = [
            member.device.scheduler.max_waiting_seen
            for member in self.members
            if member.device is not None
        ]
        return max(waits) if waits else 0

    def pending_total(self) -> int:
        """Requests still queued anywhere in the fleet (0 after a clean run)."""
        return sum(member.pending_requests() for member in self.members)
