"""The fleet controller: everything that happens once per *epoch*.

:class:`~repro.fleet.router.FleetRouter` is the per-object GET path; this
module is the control plane wrapped around it.  A :class:`FleetController`
is built over a finished router — after every initial device, before any
session — and from then on is the only writer of the placement, of the
ring's weights and (through :class:`~repro.fleet.membership.FleetMembership`)
of every member's life-cycle state:

* **Admin processes** — one simulation process per declared
  :class:`~repro.fleet.spec.DeviceFailure` and membership event
  (:class:`~repro.fleet.spec.DeviceJoin`, :class:`~repro.fleet.spec.DeviceLeave`,
  :class:`~repro.fleet.spec.SetReplication`), plus the periodic feedback
  rebalancer when the spec configures one.
* **Epochs** — each change advances the membership epoch, deterministically
  recomputes the consistent-hash placement over the new roster and executes
  the **minimal migration plan**: only keys whose replica set changed move,
  with the migration I/O charged to the source and destination devices as
  priority work that measurably interferes with foreground traffic.
* **Failover / hand-off** — a fail-stopped or gracefully leaving device's
  queue is drained through the router and re-submitted once the new
  placement stands, so the requests land on their new owners.  With
  ``repair`` the lost replicas are re-created on surviving owners.
* **Load-aware placement** — raw capacity weights (static speed factors
  under ``weighting="profile"``, observed service rates once the rebalancer
  triggers) are normalised once, by the ring, over the serving roster.
* **Health and history** — the placement-epoch identity (roster, R and
  vnode counts the current placement was computed at), the migration plans,
  and the replication-health and rebalancer logs that
  :mod:`repro.fleet.report` and the invariant checker read.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, filterfalse, repeat
from operator import attrgetter, itemgetter, lt
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.metrics import imbalance_coefficient
from repro.csd.layout import extend_layout_with_keys
from repro.csd.request import MigrationJob, MigrationNotify, migration_fields
from repro.exceptions import SimulationError
from repro.fleet.migration import MigrationPlan, plan_migration
from repro.fleet.placement import normalize_weights
from repro.fleet.router import FleetRouter
from repro.fleet.spec import (
    IMBALANCE_THRESHOLD,
    MIN_WEIGHT_DELTA,
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    RebalancePolicy,
    SetReplication,
    device_name,
)
from repro.sim.events import Event

#: ``_tuple_new(MigrationJob, (key, *fields))`` is ``MigrationJob(key,
#: *fields)`` without the Python frame of the generated ``__new__``: a
#: rebalance builds one job per replica read and write.
_tuple_new = tuple.__new__
#: A move's source and destination; a member's device id.
_source_and_dest = itemgetter(1, 2)
_device_id = attrgetter("device_id")


class FleetController:
    """Moves a router's fleet from one placement epoch to the next."""

    def __init__(self, router: FleetRouter) -> None:
        self.router = router
        self.env = router.env
        self.spec = router.spec
        self.membership = router.membership
        self._policy = router.policy
        #: The hash column of ``router.sorted_key_hashes`` that every epoch
        #: diff walks; built by the first epoch change, not at set-up.
        self._key_hashes: Optional[List[int]] = None
        #: See :attr:`replica_census`; built by its first read.
        self._census: Optional[Counter] = None
        #: Raw (un-normalised) capacity weights the weighted ring is built
        #: from: static speed factors under ``weighting="profile"``, observed
        #: 1/EWMA-latency rates once the feedback rebalancer triggers.
        #: Empty = uniform ring (every device gets ``VIRTUAL_NODES`` vnodes).
        self._raw_weights: Dict[str, float] = {}
        if self.spec.weighting == "profile":
            self._raw_weights = {
                member.device_id: self.membership.profile_weight(member)
                for member in self.membership.members
            }
        #: Roster the current placement was computed over; with
        #: ``placement_replication`` (tracks ``SetReplication`` events and
        #: repair under device loss) and ``placement_vnode_counts`` (aligned
        #: with the roster) it identifies the old epoch's ring for
        #: incremental placement diffs, weighted or not.
        self.placement_roster: Tuple[str, ...] = tuple(self.spec.device_ids)
        self.placement_replication = self.spec.replication
        self.placement_vnode_counts: Tuple[int, ...] = self._policy.vnode_counts(
            self.placement_roster
        )
        #: Migration plans executed so far, one per placement recompute.
        self.migration_plans: List[MigrationPlan] = []
        #: Per-epoch replication health: under-replicated key counts sampled
        #: when each epoch opened (before its plan ran) and after.
        self.replication_log: List[Dict[str, object]] = []
        #: Feedback-rebalancer tick log: one entry per controller interval
        #: (imbalance observed, whether a reweight fired, and why not).
        self.rebalance_log: List[Dict[str, object]] = []

        #: Failure/membership processes still to open their epoch: once none
        #: is left and no periodic rebalancer runs, the census goes.
        self._epochs_to_open = len(self.spec.failures) + len(self.spec.events)
        # Nothing waits on these processes: one that crashes ends the run
        # with its error, raised by the kernel at the crash.
        for failure in self.spec.failures:
            self.env.process(self._fail_device(failure), name=f"fleet-failure:{failure.device}")
        for event in self.spec.events:
            if isinstance(event, SetReplication):
                name = f"fleet-set-replication:{event.replication}"
            else:
                kind = "join" if isinstance(event, DeviceJoin) else "leave"
                name = f"fleet-{kind}:{event.device}"
            self.env.process(self._membership_event(event), name=name)
        #: The session processes the run waits for, handed over by the
        #: service as it runs: a rebalancer tick left alone names the
        #: unfinished ones.
        self.sessions: Sequence[Event] = ()
        if self.spec.rebalance is not None:
            self._rebalancer = self.env.process(
                self._rebalance_controller(self.spec.rebalance), name="fleet-rebalancer"
            )

    # ------------------------------------------------------------------ #
    # Failure handling (fail-stop: epoch advances; with ``repair`` the lost
    # replicas are re-created on surviving owners as charged migration I/O)
    # ------------------------------------------------------------------ #
    def _fail_device(self, failure: DeviceFailure):
        if failure.at_seconds > 0:
            yield failure.at_seconds
        member = self.membership.fail(device_name(failure.device), self.env.now)
        # Fail-stop at a request boundary: the transfer in flight (if any)
        # completes normally, everything still queued fails over — and any
        # migration I/O still queued on the corpse is dropped outright (a
        # dead device performs no further reads or writes, ever).
        stats = self.router.stats
        drained = self.router.drain_pending(member)
        stats.failed_over += len(drained)
        if member.device is not None:
            stats.dropped_migration_jobs += len(member.device.drain_migration_jobs())
        if self.spec.repair and self.membership.replication >= 2:
            # Read-repair: re-place over the survivors and re-create the dead
            # device's replicas from live sources, so the fleet returns to R
            # live replicas per key instead of silently staying degraded.
            self._rebalance("repair", member.device_id, reason="repair")
        else:
            self._record_replication_health("failure")
        self.router.submit_many(drained)
        self._epoch_opened()

    # ------------------------------------------------------------------ #
    # Membership events (joins / graceful leaves → epoch + migration)
    # ------------------------------------------------------------------ #
    def _membership_event(self, event):
        if event.at_seconds > 0:
            yield event.at_seconds
        if isinstance(event, DeviceJoin):
            self._apply_join(event)
        elif isinstance(event, DeviceLeave):
            self._apply_leave(event)
        elif isinstance(event, SetReplication):
            self._apply_set_replication(event)
        self._epoch_opened()

    def _epoch_opened(self) -> None:
        """Count one failure/membership epoch done; after the last, unless a
        periodic rebalancer can still open one, drop the census (see
        :meth:`release`)."""
        self._epochs_to_open -= 1
        if not self._epochs_to_open and self.spec.rebalance is None:
            self._census = None

    def _apply_join(self, event: DeviceJoin) -> None:
        member = self.membership.join(event, self.env.now)
        if self.spec.weighting == "profile":
            # The joiner's speed factor enters the raw weight set here; the
            # rebalance below re-normalises over the whole serving roster.
            self._raw_weights[member.device_id] = self.membership.profile_weight(member)
        self._rebalance("join", member.device_id)

    def _apply_leave(self, event: DeviceLeave) -> None:
        member = self.membership.leave(device_name(event.device), self.env.now)
        # Hand the leaver's queue off *after* the placement recompute so the
        # drained requests land on their new owners; the in-flight transfer
        # (if any) completes on the leaver, exactly like fail-stop drains.
        drained = self.router.drain_pending(member)
        self.router.stats.handed_off += len(drained)
        self._rebalance("leave", member.device_id)
        self.router.submit_many(drained)

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
        stops dispatching its wake-ups once the target event fires, so ticks
        scheduled past the end of the workload never happen.  The ticks keep
        the queue from running dry, so a starved run would never end in "ran
        out of events": a tick that wakes to nothing else scheduled raises a
        :class:`SimulationError` naming the sessions that can never finish.
        (A crashed process ends the run itself, as the kernel raises a
        failure nobody waits for.)
        """
        env = self.env
        window_start = 0.0
        while True:
            yield policy.interval_seconds
            if env.only(self._rebalancer.wake):
                raise SimulationError(
                    f"nothing but the fleet rebalancer is left to run at t = {env.now}; "
                    "the sessions that can never finish: "
                    f"{[session.name for session in self.sessions if not session.triggered]}"
                )
            self._rebalance_tick(window_start, env.now)
            window_start = env.now

    def _rebalance_tick(self, window_start: float, now: float) -> None:
        """One controller decision over the busy window just ended.

        Imbalance is measured as the coefficient of variation of per-device
        busy seconds inside the window.  Past the threshold, target weights
        are set proportional to observed service rate (1 / latency EWMA) —
        a device answering twice as fast earns twice the arc share — and a
        ``reweight`` epoch migrates the placement to the new ring through
        the ordinary throttled-migration machinery.  Every tick appends a
        log entry stating what it saw and why it did (or did not) act.
        """
        serving = [member for member in self.membership.members if member.alive]
        window = ((window_start, now),)
        busy = [member.busy_per_window(window)[0] for member in serving]
        imbalance = imbalance_coefficient(busy)
        entry: Dict[str, object] = {
            "at_seconds": now,
            "window_start": window_start,
            "epoch": self.membership.epoch,
            "imbalance_coefficient": imbalance,
            "triggered": False,
            "outcome": "below-threshold",
        }
        if imbalance > IMBALANCE_THRESHOLD:
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
                delta = max(
                    abs(target[member.device_id] - member.weight) for member in serving
                )
                entry["max_weight_delta"] = delta
                if delta < MIN_WEIGHT_DELTA:
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

    # ------------------------------------------------------------------ #
    # Replication health
    # ------------------------------------------------------------------ #
    @property
    def effective_replication(self) -> int:
        """Replicas per key the current roster can actually sustain."""
        return min(self.membership.replication, len(self.membership.serving_ids()))

    @property
    def replica_census(self) -> Counter:
        """Keys per replica tuple of the current placement.

        Built by the first read, in one pass over the placement (set-up
        pays nothing for it); from then on each epoch updates it from its
        changed keys' old and new tuples, so it never rescans the keys.
        """
        census = self._census
        if census is None:
            census = self._census = Counter(self.router.placement.values())
        return census

    def release(self) -> None:
        """Drop the census once the run is over: no epoch opens any more,
        and an after-the-run reader counts the placement itself.  A fleet
        whose epochs are all declared drops it sooner, when the last one has
        opened."""
        self._census = None

    def under_replicated_count(self, census: Mapping[Tuple[str, ...], int]) -> int:
        """Keys with fewer live replicas than the current target, in a
        census of keys per replica tuple (:attr:`replica_census`).

        Counted once per distinct replica tuple, not per key.  A key's
        replicas are distinct devices, so the live ones are the
        intersection with the serving roster.
        """
        target = self.effective_replication
        serving = set(self.membership.serving_ids())
        # Tuples of fewer than ``target`` devices, in C; then the few that
        # hold a device no longer serving (left or failed) and so have
        # fewer live replicas than devices, one by one.
        under = sum(compress(census.values(), map(lt, map(len, census), repeat(target))))
        gone = set(map(_device_id, self.membership.members)).difference(serving)
        for replicas in filterfalse(gone.isdisjoint, census):
            if len(replicas) >= target > len(serving.intersection(replicas)):
                under += census[replicas]
        return under

    def _record_replication_health(
        self, kind: str, at_open: Optional[int] = None
    ) -> None:
        """Append one per-epoch replication-health sample.

        ``under_replicated_at_open`` is the count the instant the epoch
        opened — for a failure, the degradation the loss itself caused;
        ``under_replicated_after_plan`` is what remained once the epoch's
        plan ran (unchanged when no plan ran, e.g. repair disabled).
        """
        after = self.under_replicated_count(self.replica_census)
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

    # ------------------------------------------------------------------ #
    # Placement epochs: recompute, diff, plan, execute
    # ------------------------------------------------------------------ #
    def _install_weights(self, roster: Sequence[str]) -> None:
        """Put the raw weights of ``roster`` on the ring, which normalises them.

        Normalisation is always over the devices actually in the roster, so
        a join or leave re-centres everyone's weight around mean 1.0 — the
        property that keeps an all-equal fleet byte-identical to an
        unweighted one.  Every member's ``weight`` is then the number the
        ring holds for it.
        """
        self._policy.set_weights(
            {
                device_id: self._raw_weights[device_id]
                for device_id in roster
                if device_id in self._raw_weights
            }
        )
        weights = self._policy.weights
        for member in self.membership.members:
            member.weight = weights.get(member.device_id, 1.0)

    def _rebalance(self, kind: str, device_id: str, reason: str = "rebalance") -> None:
        """Advance placement to the new epoch and execute the minimal plan."""
        epoch_record = self.membership.epoch_log[-1]
        placement = self.router.placement
        census = self.replica_census
        under_replicated_before = self.under_replicated_count(census)
        # The effective factor adapts to the roster: a repair pass after a
        # loss can only restore min(R, serving) replicas per key.
        replication = self.effective_replication
        old_replication = self.placement_replication
        serving = list(self.membership.serving_ids())
        # The old ring's vnode counts are snapshotted; re-normalising the
        # weights over the new roster (and any reweight that led here)
        # yields the new counts, and the diff walks both rings.
        old_vnode_counts = self.placement_vnode_counts
        self._install_weights(serving)
        new_vnode_counts = self._policy.vnode_counts(serving)
        # Only the keys in ring arcs whose replica tuple changed need
        # re-placing; everything else keeps its entry from the old epoch.
        key_hashes = self._key_hashes
        if key_hashes is None:
            key_hashes = self._key_hashes = [
                pair[0] for pair in self.router.sorted_key_hashes
            ]
        changed = self._policy.diff_keys(
            self.router.sorted_key_hashes,
            self.placement_roster,
            serving,
            old_replication,
            replication,
            old_vnode_counts=old_vnode_counts,
            new_vnode_counts=new_vnode_counts,
            key_hashes=key_hashes,
        )
        # What the epoch needs of the old placement is taken before the
        # router's dict is updated in place: the changed keys' old replicas.
        old_replicas = {key: placement[key] for key in changed}
        # Updating existing keys in place keeps the dict's canonical key
        # order (what a full placement scan iterates), which the plan must
        # see the changed keys in, not hash order: a filter over it gives
        # that order without a per-key rank index.
        placement.update(changed)
        # Only changed keys can change health: the census moves their
        # counts from the old tuples to the new, and is counted once more.
        for replicas, keys in Counter(old_replicas.values()).items():
            left = census[replicas] - keys
            if left:
                census[replicas] = left
            else:
                census.pop(replicas)
        census.update(changed.values())
        changed_keys = list(filter(changed.__contains__, placement))
        members = self.membership.members
        alive = {member.device_id: member.alive for member in members}
        plan = plan_migration(
            epoch=epoch_record.epoch,
            at_seconds=self.env.now,
            kind=kind,
            device_id=device_id,
            old_replicas=old_replicas,
            new_placement=placement,
            alive=alive,
            devices_before=epoch_record.devices_before,
            devices_after=epoch_record.devices_after,
            replication=replication,
            # Layouts are append-only, so a device that held a key in an
            # earlier epoch still physically has it: re-adopting such a
            # replica costs no migration I/O.
            resident={
                member.device_id: member.device.layout.placed_keys
                for member in members
                if member.device is not None
            },
            changed_keys=changed_keys,
        )
        self.placement_replication = replication
        self.placement_roster = tuple(serving)
        self.placement_vnode_counts = new_vnode_counts
        self._execute_plan(plan, reason=reason)
        self.migration_plans.append(plan)
        self._record_replication_health(
            kind, at_open=under_replicated_before
        )

    def _execute_plan(self, plan: MigrationPlan, reason: str = "rebalance") -> None:
        """Extend destination layouts and charge the migration I/O.

        Each destination's layout is extended once, with its gained keys in
        canonical order, destinations in roster order.  Then every move is a
        read job at its source and a write job at its destination: each
        device's jobs are built into one list (its job fields validated
        once per direction) and handed over in one
        :meth:`~repro.csd.device.ColdStorageDevice.submit_migrations` call.
        Devices get their batches in the order they first appear in the
        move list — the order in which one ``put`` per job used to wake
        their idle loops — so the events dispatched are the same.
        """
        # ``plan.moves`` follow the plan's ``changed_keys``, which are in
        # canonical key order, so each destination's keys arrive in client
        # order already — the order initial layouts are built in.
        moves = plan.moves
        members = self.membership.members
        gained: Dict[str, List[str]] = {member.device_id: [] for member in members}
        gain = {device_id: keys.append for device_id, keys in gained.items()}
        for object_key, _source, dest in moves:
            gain[dest](object_key)
        # Destinations in roster order: deterministic layout/group assignment.
        for member in members:
            keys = gained[member.device_id]
            if not keys:
                continue
            if member.device is None:
                # A member with no device held nothing before, so its gained
                # keys are exactly its subset of the (already updated)
                # current placement: group them by owning client — the key's
                # ``tenant/`` prefix (``keys`` are canonical, client-major,
                # so clients land in first-seen order with keys in client
                # order, matching what a full placement scan would build).
                subset: Dict[str, List[str]] = {}
                tenant_of_run: Optional[str] = None
                for key in keys:
                    # The key's ``tenant/`` prefix, inline: per moved key.
                    tenant = key.partition("/")[0]
                    if tenant != tenant_of_run:
                        tenant_of_run = tenant
                        add_to_tenant = subset.setdefault(tenant, []).append
                    add_to_tenant(key)
                member.device = self.router.build_device(member, subset)
            else:
                extend_layout_with_keys(member.device.layout, keys)

        def _account(job: MigrationJob, start: float, end: float, _interfered: bool) -> None:
            plan.migration_seconds += end - start

        # Per device with a device: its batch, and per direction the job
        # fields (validated once) with the batch's bound ``append``.
        batches: Dict[str, List[MigrationJob]] = {}
        reads: Dict[str, Tuple[float, str, MigrationNotify, Callable[[MigrationJob], None]]] = {}
        writes: Dict[str, Tuple[float, str, MigrationNotify, Callable[[MigrationJob], None]]] = {}
        for member in members:
            if member.device is not None:
                seconds = member.device.config.transfer_seconds_per_object
                append = batches.setdefault(member.device_id, []).append
                reads[member.device_id] = (
                    *migration_fields("read", seconds, plan.epoch, reason, _account),
                    append,
                )
                writes[member.device_id] = (
                    *migration_fields("write", seconds, plan.epoch, reason, _account),
                    append,
                )
        for object_key, source, dest in moves:
            seconds, label, notify, append = reads[source]
            append(_tuple_new(MigrationJob, (object_key, seconds, label, notify)))
            seconds, label, notify, append = writes[dest]
            append(_tuple_new(MigrationJob, (object_key, seconds, label, notify)))
        # Devices in the order they first appear in the moves, reads first.
        by_id = self.membership.by_id
        for device_id in dict.fromkeys(chain.from_iterable(map(_source_and_dest, moves))):
            by_id[device_id].device.submit_migrations(batches[device_id])
