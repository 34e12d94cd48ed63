"""The fleet router: the GET path over N devices, and the views over them.

The router composes N independent :class:`~repro.csd.device.ColdStorageDevice`
instances — each with its own disk-group layout, its own I/O scheduler and
its own (possibly heterogeneous) :class:`~repro.csd.device.DeviceConfig` —
behind the exact ``submit_many()`` interface clients already speak, so executors
and client proxies are oblivious to whether they talk to one device or to a
sharded fleet.  This module is the per-*object* half of the fleet layer
(paper §4: tagged GET → scheduler → transfer); everything that runs per
*epoch* — failures, joins, leaves, repair, reweighting, migration plans —
is :mod:`repro.fleet.controller`.

Responsibilities:

* **Construction** — the epoch-0 ring (weighted by static speed factors
  under ``weighting="profile"``; an all-equal-weight fleet is byte-identical
  to an unweighted one), the placement over it, and one device per roster
  member laid out over its placement subset.
* **Routing** — every GET is dispatched to one live replica of its object,
  chosen by the replica policy: primary-first, least-loaded (queue length)
  or ewma-latency (smoothed service time × queue depth).  Completions feed
  a per-device latency EWMA in simulated time, so adaptive policies stay
  deterministic.
* **Draining** — :meth:`FleetRouter.drain_pending` pulls queued GETs back
  out of one device or all of them and takes them off ``outstanding``;
  failover, hand-off and the service's admin hatch re-submit what it
  returns through :meth:`FleetRouter.submit_many`, so nothing is lost and
  there is one routing body.
* **Aggregation** — per-device counters are combined into fleet-level
  statistics.  Busy time is not aggregated: each device's
  ``busy_intervals`` log stays the one record, and after-the-run readers
  (the Figure 9 attribution, the invariant checker, the trace exporter)
  iterate ``StorageService.devices`` and read each log in place.  The
  scenario-report sections built from this state live in
  :mod:`repro.fleet.report`.

Once built, the router *reads* ``placement``, ``members`` and each member's
``alive`` flag; it never rewrites placement or life-cycle state.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.csd.device import (
    ColdStorageDevice,
    DeviceConfig,
    DeviceStats,
    MigrationTokenBucket,
)
from repro.csd.layout import LayoutPolicy
from repro.csd.object_store import ObjectStore
from repro.csd.request import GetRequest
from repro.csd.scheduler import IOScheduler
from repro.exceptions import FleetError, StorageError
from repro.fleet.membership import FleetMember, FleetMembership
from repro.fleet.placement import ConsistentHashPlacement
from repro.fleet.spec import FleetSpec
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.sim import Environment, Event

SchedulerFactory = Callable[[], IOScheduler]

#: ``least-loaded``'s score, read without a Python frame per replica.
_OUTSTANDING = attrgetter("outstanding")


class FleetRouterStats:
    """Fleet-wide counters: plain numbers, bumped in place by the router and
    the controller.  A router built with a
    :class:`~repro.obs.metrics.MetricsRegistry` publishes them as ``router.*``.
    """

    __slots__ = (
        "requests_routed",
        "failed_over",
        "handed_off",
        "dropped_migration_jobs",
        "choice_primary",
        "choice_diverted",
        "request_latency",
    )

    def __init__(self) -> None:
        self.requests_routed = 0
        self.failed_over = 0
        #: Requests handed off from a gracefully leaving device's queue.
        self.handed_off = 0
        #: Migration jobs withdrawn from a fail-stopped device's queue (a
        #: dead device performs no further I/O, so its pending rebalance
        #: work is dropped uncharged).
        self.dropped_migration_jobs = 0
        #: Replica-choice split: requests served by their placement primary
        #: vs diverted to another replica by the replica policy.
        self.choice_primary = 0
        self.choice_diverted = 0
        #: Fleet-wide routed→completed latencies (simulated seconds), in
        #: completion order; they back the p50/p95/p99 figures in the
        #: routing report section.
        self.request_latency: List[float] = []


class FleetRouter:
    """Dispatches GET requests across a sharded, replicated fleet."""

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
        #: Catalogue the router and its devices publish into (``None`` = none).
        self._metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = FleetRouterStats()
        if metrics is not None:
            metrics.publish("router", self.stats, FleetRouterStats.__slots__)
        self.layout_policy = layout_policy
        self.scheduler_factory = scheduler_factory
        #: Epoch-versioned roster: who is in the fleet, with which config.
        self.membership = FleetMembership(
            fleet_spec, device_config or DeviceConfig()
        )
        #: The membership's roster itself (one list, one member per device).
        self.members: List[FleetMember] = self.membership.members
        #: Routed, not yet completed requests by their completion event —
        #: how the one shared completion handler finds its request without a
        #: closure per request or a completion → request reference cycle.
        self._in_flight: Dict[Event, GetRequest] = {}

        # Preserve each client's object order; placement recomputes and
        # per-device subsets all derive from this one ordering.
        self.client_objects: Dict[str, List[str]] = {
            client: list(keys) for client, keys in client_objects.items()
        }
        #: The canonical (client-major) key order.
        self.key_order: List[str] = [
            key for keys in self.client_objects.values() for key in keys
        ]
        self.policy = ConsistentHashPlacement(
            fleet_spec.replication, virtual_nodes=fleet_spec.virtual_nodes
        )
        if fleet_spec.weighting == "profile":
            # Static speed factors size the epoch-0 ring; each member's
            # weight is the number the ring holds for it.
            self.policy.set_weights(
                {
                    member.device_id: self.membership.profile_weight(member)
                    for member in self.members
                }
            )
            weights = self.policy.weights
            for member in self.members:
                member.weight = weights[member.device_id]
        #: Key population as (hash, key) pairs sorted by hash — computed
        #: once (key hashes never change): the initial bulk placement sweeps
        #: this sorted list and every epoch change walks changed ring arcs
        #: instead of re-placing all keys.
        self.sorted_key_hashes: List[Tuple[int, str]] = sorted(
            zip(self.policy.bulk_key_hashes(self.key_order), self.key_order)
        )
        #: object key -> replica device ids, primary first (current epoch).
        self.placement: Dict[str, Tuple[str, ...]] = self.policy.place(
            self.key_order,
            list(fleet_spec.device_ids),
            sorted_key_hashes=self.sorted_key_hashes,
        )

        subsets = self._invert_placement()
        for member in self.members:
            subset = subsets.get(member.device_id)
            if subset:
                member.device = self.build_device(member, subset)
                member.object_keys = tuple(key for keys in subset.values() for key in keys)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
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

    def _make_throttle(self) -> Optional[MigrationTokenBucket]:
        """Fresh per-device token bucket, or ``None`` for strict priority."""
        throttle = self.spec.throttle
        if throttle is None:
            return None
        return MigrationTokenBucket(throttle.objects_per_second, throttle.burst)

    def build_device(
        self, member: FleetMember, subset: Mapping[str, Sequence[str]]
    ) -> ColdStorageDevice:
        """A device for ``member``, laid out over its per-client ``subset``."""
        return ColdStorageDevice(
            env=self.env,
            object_store=self.object_store,
            layout=self.layout_policy.build(subset),
            scheduler=self.scheduler_factory(),
            config=member.config,
            migration_throttle=self._make_throttle(),
            name=member.device_id,
            metrics=self._metrics,
            tracer=self.tracer,
        )

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
        members = self.membership.by_id
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
        now = self.env.now
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
                    completion.callbacks.append(on_complete)
                request.owner = member
        stats = self.stats
        stats.requests_routed += len(requests)
        stats.choice_primary += primary
        stats.choice_diverted += len(requests) - primary
        if self.tracer.enabled:
            self._trace_routes(requests, routed)
        for member, batch in routed:
            member.device.enqueue(batch)

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
            latency = self.env.now - request.routed_at
            member.ewma.observe(latency)
            member.latency_sum += latency
            self.stats.request_latency.append(latency)

    def _choose_replica(self, replicas: Sequence[str], object_key: str) -> FleetMember:
        """The live member of ``replicas`` the replica policy picks right now."""
        members = self.membership.by_id
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
        return live[0]

    # ------------------------------------------------------------------ #
    # Draining (failover, hand-off, the service's admin hatch)
    # ------------------------------------------------------------------ #
    def drain_pending(self, member: Optional[FleetMember] = None) -> List[GetRequest]:
        """Pull every queued, not-yet-served GET back out of ``member``'s
        device — of every device when ``member`` is ``None`` — and take it
        off ``outstanding``, so the load-aware policies never read a queue
        that is no longer there.  The transfer in flight (if any) completes
        normally.  The requests stay routed (callback registered, owner
        set): hand them back to :meth:`submit_many` to serve them.
        """
        if member is None:
            return [
                request for each in self.members for request in self.drain_pending(each)
            ]
        if member.device is None:
            return []
        drained = member.device.drain_pending()
        member.outstanding -= len(drained)
        return drained

    # ------------------------------------------------------------------ #
    # Aggregated views for the metrics / invariants layers
    # ------------------------------------------------------------------ #
    @property
    def device_stats(self) -> DeviceStats:
        """Fleet-wide counters in the single-device stats shape."""
        combined = DeviceStats()
        for member in self.members:
            if member.device is not None:
                combined.absorb(member.device.stats)
        return combined

    def pending_total(self) -> int:
        """Requests still queued anywhere in the fleet (0 after a clean run)."""
        return sum(member.pending_requests() for member in self.members)
