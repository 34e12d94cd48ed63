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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.metrics import imbalance_coefficient
from repro.csd.layout import extend_layout_with_keys
from repro.csd.object_store import split_object_key
from repro.csd.request import MigrationJob
from repro.exceptions import FleetError
from repro.fleet.migration import MigrationPlan, plan_migration
from repro.fleet.placement import normalize_weights
from repro.fleet.router import FleetRouter
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    RebalancePolicy,
    SetReplication,
    device_name,
)


class FleetController:
    """Moves a router's fleet from one placement epoch to the next."""

    def __init__(self, router: FleetRouter) -> None:
        self.router = router
        self.env = router.env
        self.spec = router.spec
        self.membership = router.membership
        self._policy = router.policy
        #: key -> position in the canonical ordering; lets plan execution
        #: sort a plan's gained keys in O(M log M) instead of rescanning
        #: every client's full key list per gaining device.
        self._key_rank: Dict[str, int] = {
            key: rank for rank, key in enumerate(router.key_order)
        }
        #: The hash column of ``router.sorted_key_hashes`` that every epoch
        #: diff walks; built by the first epoch change, not at set-up.
        self._key_hashes: Optional[List[int]] = None
        #: Raw (un-normalised) capacity weights the weighted ring is built
        #: from: static speed factors under ``weighting="profile"``, observed
        #: 1/EWMA-latency rates once the feedback rebalancer triggers.
        #: Empty = uniform ring (every device gets ``virtual_nodes`` vnodes).
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

        #: Failure/membership processes; their exceptions would otherwise be
        #: recorded on the process event with no waiter and silently lost,
        #: so the service re-raises them after (or instead of) a stuck run.
        self.admin_processes = []
        for failure in self.spec.failures:
            self.admin_processes.append(
                self.env.process(
                    self._fail_device(failure), name=f"fleet-failure:{failure.device}"
                )
            )
        for event in self.spec.events:
            if isinstance(event, SetReplication):
                name = f"fleet-set-replication:{event.replication}"
            else:
                kind = "join" if isinstance(event, DeviceJoin) else "leave"
                name = f"fleet-{kind}:{event.device}"
            self.admin_processes.append(
                self.env.process(self._membership_event(event), name=name)
            )
        if self.spec.rebalance is not None:
            self.admin_processes.append(
                self.env.process(
                    self._rebalance_controller(self.spec.rebalance),
                    name="fleet-rebalancer",
                )
            )

    def raise_admin_failure(self) -> None:
        """Re-raise the first exception a failure/membership process died of."""
        for process in self.admin_processes:
            if process.exception is not None:
                raise process.exception

    # ------------------------------------------------------------------ #
    # Failure handling (fail-stop: epoch advances; with ``repair`` the lost
    # replicas are re-created on surviving owners as charged migration I/O)
    # ------------------------------------------------------------------ #
    def _fail_device(self, failure: DeviceFailure):
        if failure.at_seconds > 0:
            yield self.env.timeout(failure.at_seconds)
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
                delta = max(
                    abs(target[member.device_id] - member.weight) for member in serving
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

    # ------------------------------------------------------------------ #
    # Replication health
    # ------------------------------------------------------------------ #
    @property
    def effective_replication(self) -> int:
        """Replicas per key the current roster can actually sustain."""
        return min(self.membership.replication, len(self.membership.serving_ids()))

    def under_replicated_count(self, placement: Mapping[str, Sequence[str]]) -> int:
        """Keys with fewer live replicas than the current target.

        Counted once per distinct replica tuple, not per key: placement
        values are the ring's shared per-arc tuples, so there are at most
        ring-size of them.  A key's replicas are distinct devices, so the
        live ones are the intersection with the serving roster.
        """
        target = self.effective_replication
        alive = set(self.membership.serving_ids())
        return sum(
            keys
            for replicas, keys in Counter(placement.values()).items()
            if len(alive.intersection(replicas)) < target
        )

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
            after = self.under_replicated_count(self.router.placement)
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
        ring holds for it.  A no-op on uniform fleets.
        """
        if not self._raw_weights:
            return
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
        old_placement = self.router.placement
        under_replicated_before = self.under_replicated_count(old_placement)
        # The effective factor adapts to the roster: a repair pass after a
        # loss can only restore min(R, serving) replicas per key.
        replication = self.effective_replication
        old_replication = self.placement_replication
        self._policy.replication = replication
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
        new_placement = dict(old_placement)
        new_placement.update(changed)
        # Only changed keys can change health: no second full scan.
        under_replicated_after = (
            under_replicated_before
            - self.under_replicated_count({key: old_placement[key] for key in changed})
            + self.under_replicated_count(changed)
        )
        # The plan must see changed keys in canonical key order (what a
        # full placement scan iterates), not hash order.
        changed_keys = sorted(changed, key=self._key_rank.__getitem__)
        members = self.membership.members
        alive = {member.device_id: member.alive for member in members}
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
        self.router.placement = new_placement
        self.placement_replication = replication
        self.placement_roster = tuple(serving)
        self.placement_vnode_counts = new_vnode_counts
        self._execute_plan(plan, reason=reason)
        self.migration_plans.append(plan)
        self._record_replication_health(
            kind, at_open=under_replicated_before, after=under_replicated_after
        )

    def _execute_plan(self, plan: MigrationPlan, reason: str = "rebalance") -> None:
        """Extend destination layouts and charge the migration I/O.

        Each destination's layout is extended once, with its gained keys in
        canonical order, destinations in roster order.  Then every move is a
        read job at its source and a write job at its destination: each
        device's jobs are built into one list (its transfer time read once)
        and handed over in one :meth:`~repro.csd.device.ColdStorageDevice.submit_migrations`
        call.  Devices get their batches in the order they first appear in
        the move list — the order in which one ``put`` per job used to wake
        their idle loops — so the events dispatched are the same.
        """
        gained: Dict[str, List[str]] = {}
        for move in plan.moves:
            gained.setdefault(move.dest, []).append(move.object_key)
        # Destinations in roster order: deterministic layout/group assignment.
        for member in self.membership.members:
            keys = gained.get(member.device_id)
            if not keys:
                continue
            # Keys in client order, mirroring how initial layouts are built
            # (the precomputed rank map keeps this O(M log M) per device
            # instead of a scan over every client's full key list).
            ordered = sorted(keys, key=self._key_rank.__getitem__)
            if member.device is None:
                # A member with no device held nothing before, so its gained
                # keys are exactly its subset of the (already updated)
                # current placement: group them by owning client — the key's
                # ``tenant/`` prefix (``ordered`` is canonical, client-major,
                # so clients land in first-seen order with keys in client
                # order, matching what a full placement scan would build).
                subset: Dict[str, List[str]] = {}
                for key in ordered:
                    subset.setdefault(split_object_key(key)[0], []).append(key)
                member.device = self.router.build_device(member, subset)
            else:
                extend_layout_with_keys(member.device.layout, ordered)
            member.object_keys = member.object_keys + tuple(ordered)

        def _account(job: MigrationJob, start: float, end: float, _interfered: bool,
                     plan: MigrationPlan = plan) -> None:
            plan.migration_seconds += end - start

        seconds = {
            member.device_id: member.device.config.transfer_seconds_per_object
            for member in self.membership.members
            if member.device is not None
        }
        epoch = plan.epoch
        batches: Dict[str, List[MigrationJob]] = {}
        for object_key, source, dest in plan.moves:
            # A source without a device performs no read.
            if source in seconds:
                batches.setdefault(source, []).append(
                    MigrationJob(object_key, "read", seconds[source], epoch, reason, _account)
                )
            batches.setdefault(dest, []).append(
                MigrationJob(object_key, "write", seconds[dest], epoch, reason, _account)
            )
        members = self.membership.by_id
        for device_id, jobs in batches.items():
            members[device_id].device.submit_migrations(jobs)
