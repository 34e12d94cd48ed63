"""Cross-cutting invariants checked after every scenario run.

The scenario engine is a regression net for the whole reproduction, so every
run — regardless of which scenario — is validated against properties that
must hold for *any* configuration:

* **Conservation** — every GET issued by a client is served exactly once:
  the devices' served-object counters, their per-client counters, their
  transfer busy-intervals and the clients' request counters all agree, the
  received (and, on a fleet, routed) counters exceed them by exactly the
  failed-over plus handed-off requests, no scheduler is left with pending
  work and every transfer was served from the group its device's layout
  names.  One body over ``service.devices`` — one entry for the paper's
  single CSD — so the fleet has no second copy of the check.
* **Bounded starvation** — under the rank-based policy with fairness
  constant K > 0, no query's waiting counter (group switches since it was
  last serviced) ever exceeds a bound derived from the group/query counts;
  efficiency-first policies offer no such guarantee.
* **Monotone clock** — device busy intervals are well-formed, finish in
  non-decreasing completion order and never extend past the end of the
  simulation; every query finishes no earlier than it starts.
* **Cache bounds** — no Skipper client's cache ever held more objects than
  its configured capacity.
* **Fleet placement** (fleet runs) — every object is placed on exactly R
  distinct devices and every serving device actually holds a replica.
* **Fleet failover** (fleet runs with failures) — dead devices start no work
  after their failure instant and no request is left queued anywhere: with
  R >= 2, zero objects are lost.
* **Fleet rebalance** (fleet runs with membership events) — epochs advance
  strictly monotonically, every migration plan stays within the
  bounded-migration envelope (≈2·R·K/N keys, far below a naive full
  reshuffle; an R change may legitimately sweep all K keys), departed
  devices perform only migration reads after leaving, joiners perform no
  work before joining, and zero objects are lost across the rebalance.
* **Replication repair** (fleet runs that repaired, re-replicated or
  trimmed) — after a read-repair pass or a ``SetReplication`` change every
  surviving key returns to ``min(R, serving)`` live replicas, trims never
  drop a key's last replica, and no device's outstanding counter ends
  non-zero.

A violated invariant raises :class:`~repro.exceptions.InvariantViolation`;
the list of checks that ran is recorded in the scenario report so golden
files document what was validated.
"""

from __future__ import annotations

import math
from typing import List

from repro.cluster.cluster import ClusterResult
from repro.core.execution import MODE_SKIPPER
from repro.csd.scheduler import RankBasedScheduler
from repro.exceptions import InvariantViolation
from repro.service.service import StorageService

#: The invariant checks only touch the service's backend surface: the
#: ``devices`` roster and ``device_stats()`` for the checks every run gets,
#: ``fleet`` + ``controller`` for the fleet-only ones.
ClusterLike = StorageService


def starvation_bound(num_groups: int, num_queries: int, fairness_constant: float) -> int:
    """Max group switches a query may wait under the rank-based policy.

    A group with a waiting query gains at least K rank per switch it is
    passed over, while any competing group's rank is reset when serviced and
    can never exceed ``num_queries`` plus its own accumulated waiting.  The
    waiting counters of at most ``num_groups`` groups can leapfrog each other
    before the starving group's rank dominates, giving the (conservative)
    bound ``num_groups * (1 + ceil(num_queries / K))``.
    """
    if fairness_constant <= 0:
        raise InvariantViolation("starvation bound undefined for K <= 0")
    return num_groups * (1 + math.ceil(num_queries / fairness_constant))


def _issued_requests(result: ClusterResult) -> int:
    return sum(
        query_result.num_requests
        for results in result.results_by_client.values()
        for query_result in results
    )


def check_conservation(cluster: ClusterLike, result: ClusterResult) -> None:
    """Objects-served conservation across device(s), scheduler(s) and clients.

    Must hold across all devices combined.  Failed-over and handed-off
    requests are registered by two devices (the one that lost them and the
    replica that eventually serves them), so the received counter exceeds
    the issued counter by exactly the router's failed-over plus handed-off
    counts — both zero without a router, where every request is also
    "routed" straight to the one device.
    """
    issued = _issued_requests(result)
    devices = cluster.devices
    stats = cluster.device_stats()
    served = stats.objects_served
    transfers = sum(
        1
        for device in devices
        for interval in device.busy_intervals
        if interval.kind == "transfer"
    )
    per_client_total = sum(stats.objects_per_client.values())
    if len({issued, served, transfers, per_client_total}) != 1:
        raise InvariantViolation(
            "objects-served conservation broken: "
            f"issued={issued} served={served} transfers={transfers} "
            f"per_client_total={per_client_total}"
        )
    if cluster.fleet is not None:
        router = cluster.fleet.stats
        rerouted = router.failed_over + router.handed_off
        routed = router.requests_routed
    else:
        rerouted = 0
        routed = issued
    expected_received = issued + rerouted
    if stats.requests_received != expected_received:
        raise InvariantViolation(
            f"devices received {stats.requests_received} requests, expected "
            f"issued + failed_over + handed_off = {expected_received}"
        )
    if routed != expected_received:
        raise InvariantViolation(
            f"router routed {routed} requests, expected "
            f"issued + failed_over + handed_off = {expected_received}"
        )
    for device in devices:
        if device.scheduler.has_pending():
            raise InvariantViolation(
                f"device {device.name!r} still has pending requests after the run"
            )
        for interval in device.busy_intervals:
            if interval.kind != "transfer":
                continue
            expected_group = device.layout.group_of(interval.object_key)
            if interval.group_id != expected_group:
                raise InvariantViolation(
                    f"device {device.name!r}: object {interval.object_key!r} "
                    f"served from group {interval.group_id}, layout places it "
                    f"on {expected_group}"
                )


def check_no_starvation(cluster: ClusterLike, result: ClusterResult) -> bool:
    """Bounded waiting under the rank-based policy (skipped otherwise).

    Each device schedules independently; the bound is checked per device
    with that device's group count (every query could in principle have
    data on every device, so the query count is shared).
    """
    num_queries = max(
        1,
        sum(
            len(spec.queries) * spec.repetitions
            for spec in result.config.client_specs
        ),
    )
    checked_any = False
    for device in cluster.devices:
        scheduler = device.scheduler
        if not isinstance(scheduler, RankBasedScheduler) or scheduler.fairness_constant <= 0:
            continue
        checked_any = True
        num_groups = max(1, device.layout.num_groups)
        bound = starvation_bound(num_groups, num_queries, scheduler.fairness_constant)
        if scheduler.max_waiting_seen > bound:
            raise InvariantViolation(
                f"device {device.name!r}: rank-based scheduler "
                f"(K={scheduler.fairness_constant}) let a query wait "
                f"{scheduler.max_waiting_seen} switches, above the starvation "
                f"bound {bound} for {num_groups} groups / {num_queries} queries"
            )
    return checked_any


def check_monotone_clock(cluster: ClusterLike, result: ClusterResult) -> None:
    """Busy intervals and query timestamps respect the simulated clock.

    Every device's own interval list must be monotone (a fleet's merged
    stream is sorted by construction, so checking it would be vacuous).
    """
    for device in cluster.devices:
        label = device.name
        previous_end = 0.0
        for interval in device.busy_intervals:
            if interval.end < interval.start:
                raise InvariantViolation(
                    f"{label}: busy interval ends before it starts: {interval!r}"
                )
            if interval.end < previous_end:
                raise InvariantViolation(
                    f"{label}: busy intervals completed out of order: "
                    f"{interval.end} after {previous_end}"
                )
            previous_end = interval.end
        if previous_end > result.total_simulated_time:
            raise InvariantViolation(
                f"{label}: busy until {previous_end}, after the simulation "
                f"ended at {result.total_simulated_time}"
            )
    for client_id, query_results in result.results_by_client.items():
        previous_query_end = 0.0
        for query_result in query_results:
            if query_result.end_time < query_result.start_time:
                raise InvariantViolation(
                    f"client {client_id!r}: query {query_result.query_name!r} "
                    "ended before it started"
                )
            if query_result.start_time < previous_query_end:
                raise InvariantViolation(
                    f"client {client_id!r}: queries overlap in time "
                    "(clients run queries sequentially)"
                )
            previous_query_end = query_result.end_time
            for start, end in query_result.blocked_intervals:
                if end < start or start < query_result.start_time or end > query_result.end_time:
                    raise InvariantViolation(
                        f"client {client_id!r}: blocked interval ({start}, {end}) "
                        "outside the query's execution window"
                    )


def check_cache_bounds(result: ClusterResult) -> bool:
    """No Skipper cache ever exceeded its configured capacity."""
    saw_skipper = False
    for client_id, query_results in result.results_by_client.items():
        for query_result in query_results:
            if query_result.mode != MODE_SKIPPER:
                continue
            saw_skipper = True
            if query_result.cache_peak_occupancy > query_result.cache_capacity:
                raise InvariantViolation(
                    f"client {client_id!r}: cache held "
                    f"{query_result.cache_peak_occupancy} objects, above its "
                    f"capacity of {query_result.cache_capacity}"
                )
    return saw_skipper


def check_fleet_placement(cluster: ClusterLike) -> None:
    """Every object sits on exactly R distinct devices that truly hold it.

    R here is the replication factor the current placement was computed at:
    ``SetReplication`` events move it away from the spec's initial value, and
    a repair pass after device loss can only sustain ``min(R, serving)``.
    """
    fleet = cluster.fleet
    replication = cluster.controller.placement_replication
    members_by_id = fleet.membership.by_id
    for object_key, replicas in fleet.placement.items():
        if len(replicas) != replication or len(set(replicas)) != len(replicas):
            raise InvariantViolation(
                f"object {object_key!r} is placed on {list(replicas)}, "
                f"expected exactly {replication} distinct devices"
            )
        for device_id in replicas:
            member = members_by_id.get(device_id)
            if member is None or member.device is None:
                raise InvariantViolation(
                    f"object {object_key!r} placed on unknown or empty "
                    f"device {device_id!r}"
                )
            if not member.device.layout.has_object(object_key):
                raise InvariantViolation(
                    f"device {device_id!r} does not hold a replica of "
                    f"{object_key!r} despite the placement saying so"
                )


def check_fleet_failover(cluster: ClusterLike) -> bool:
    """Dead devices stop at their failure instant and nothing is lost."""
    fleet = cluster.fleet
    failed = [member for member in fleet.members if member.failed_at is not None]
    if not failed:
        return False
    for member in failed:
        if member.device is None:
            continue
        for interval in member.device.busy_intervals:
            if interval.start > member.failed_at:
                raise InvariantViolation(
                    f"dead device {member.device_id!r} started work at "
                    f"{interval.start}, after failing at {member.failed_at}"
                )
    lost = fleet.pending_total()
    if lost:
        raise InvariantViolation(
            f"{lost} request(s) left queued in the fleet after the run "
            "(lost objects on failover)"
        )
    return True


def check_fleet_rebalance(cluster: ClusterLike) -> bool:
    """Elastic-membership invariants (skipped for static fleets).

    * **Epoch monotonicity** — the epoch log advances by exactly one per
      membership change, at non-decreasing simulated times, and the final
      epoch equals the number of changes.
    * **Bounded migration** — every join/leave plan moves at most
      ``min(K, ceil(2·R·K/N))`` distinct keys (N the smaller fleet size):
      the minimal-plan guarantee of consistent hashing, far below the naive
      full reshuffle of all K keys.
    * **Migrated data lands** — every migrated key is present in its
      destination device's (append-only) layout.
    * **Graceful exits** — a departed device performs only migration reads
      after leaving; a joiner performs no work before joining.
    * **Zero lost objects** — nothing is left queued anywhere post-run.
    """
    fleet = cluster.fleet
    membership = fleet.membership
    plans = cluster.controller.migration_plans
    if not fleet.spec.events and not plans:
        # Static membership (possibly with fail-stop losses and repair
        # disabled): nothing was rebalanced, so the epoch/migration
        # invariants would be vacuous.
        return False
    previous_time = 0.0
    for position, record in enumerate(membership.epoch_log, start=1):
        if record.epoch != position:
            raise InvariantViolation(
                f"epoch log out of order: change #{position} opened epoch "
                f"{record.epoch}"
            )
        if record.at_seconds < previous_time:
            raise InvariantViolation(
                f"epoch {record.epoch} opened at {record.at_seconds}, before "
                f"epoch {record.epoch - 1}'s change at {previous_time}"
            )
        previous_time = record.at_seconds
    if membership.epoch != len(membership.epoch_log):
        raise InvariantViolation(
            f"membership epoch {membership.epoch} does not match the "
            f"{len(membership.epoch_log)} recorded changes"
        )
    members_by_id = membership.by_id
    for plan in plans:
        bound = plan.migration_bound()
        if plan.keys_moved > bound:
            raise InvariantViolation(
                f"epoch {plan.epoch} ({plan.kind} of {plan.device_id!r}) moved "
                f"{plan.keys_moved} keys, above the bounded-migration envelope "
                f"{bound} (K={plan.total_keys}, R={plan.replication}, "
                f"{plan.devices_before}->{plan.devices_after} devices)"
            )
        for move in plan.moves:
            dest = members_by_id.get(move.dest)
            if dest is None or dest.device is None or not dest.device.layout.has_object(
                move.object_key
            ):
                raise InvariantViolation(
                    f"epoch {plan.epoch}: migrated key {move.object_key!r} "
                    f"never landed in destination {move.dest!r}'s layout"
                )
    for member in fleet.members:
        if member.device is None:
            continue
        if member.left_at is not None:
            for interval in member.device.busy_intervals:
                if interval.start > member.left_at and interval.kind != "migration":
                    raise InvariantViolation(
                        f"departed device {member.device_id!r} performed "
                        f"{interval.kind} work at {interval.start}, after "
                        f"leaving at {member.left_at}"
                    )
        if member.joined_at > 0:
            for interval in member.device.busy_intervals:
                if interval.start < member.joined_at:
                    raise InvariantViolation(
                        f"device {member.device_id!r} performed work at "
                        f"{interval.start}, before joining at {member.joined_at}"
                    )
    lost = fleet.pending_total()
    if lost:
        raise InvariantViolation(
            f"{lost} request(s) left queued in the fleet after the run "
            "(lost objects across the rebalance)"
        )
    return True


def check_replication_repair(cluster: ClusterLike) -> bool:
    """Replication-lifecycle invariants (skipped when nothing rebalanced).

    * **Full replication restored** — after a read-repair pass or a
      ``SetReplication`` change, every surviving key holds exactly
      ``min(R, serving devices)`` *live* replicas, each physically present
      in its device's layout: repair actually heals the loss, R-up actually
      replicates, and R-down never over-trims.
    * **Trims keep a live replica** — no plan's trim ever left a key with
      zero *live* replicas (each :class:`~repro.fleet.migration.KeyTrim`
      records the live survivor count at plan time, so a placement diffed
      against a stale roster of dead devices would be caught here).
    * **Outstanding counters stay sane** — no device ends the run with a
      negative or non-zero outstanding count (the router raises mid-run if
      one ever goes negative).
    """
    fleet = cluster.fleet
    plans = cluster.controller.migration_plans
    trims = [trim for plan in plans for trim in plan.trims]
    healed = any(
        plan.kind in ("repair", "set-replication") for plan in plans
    ) or (fleet.spec.repair and any(m.failed_at is not None for m in fleet.members))
    # An *unrepaired* loss after the last placement recompute legitimately
    # leaves the end state degraded (repair disabled), so full replication
    # cannot be demanded of it — earlier plans notwithstanding.  A recompute
    # at or after the failure re-places over the survivors and clears the
    # taint (at equal timestamps the failure process fires first).
    failure_times = [m.failed_at for m in fleet.members if m.failed_at is not None]
    unrepaired_loss = (
        bool(failure_times)
        and not fleet.spec.repair
        and (not plans or max(failure_times) > max(p.at_seconds for p in plans))
    )
    healed = healed and not unrepaired_loss
    if not healed and not trims:
        return False
    for trim in trims:
        if trim.survivors < 1:
            raise InvariantViolation(
                f"trim of {trim.object_key!r} off {trim.device!r} dropped "
                "the key's last replica"
            )
    members_by_id = fleet.membership.by_id
    for member in fleet.members:
        if member.outstanding != 0:
            raise InvariantViolation(
                f"device {member.device_id!r} ended the run with "
                f"{member.outstanding} outstanding request(s)"
            )
    if healed:
        target = cluster.controller.effective_replication
        for object_key, replicas in fleet.placement.items():
            live = [
                device_id
                for device_id in replicas
                if members_by_id[device_id].alive
            ]
            if len(live) != target:
                raise InvariantViolation(
                    f"object {object_key!r} holds {len(live)} live replica(s) "
                    f"after repair/replication changes, expected {target}"
                )
            for device_id in live:
                member = members_by_id[device_id]
                if member.device is None or not member.device.layout.has_object(
                    object_key
                ):
                    raise InvariantViolation(
                        f"live replica of {object_key!r} on {device_id!r} is "
                        "not physically present in the device's layout"
                    )
    return True


def check_invariants(cluster: ClusterLike, result: ClusterResult) -> List[str]:
    """Run every applicable invariant; return the names of those checked."""
    checked = ["conservation", "monotone-clock"]
    check_conservation(cluster, result)
    check_monotone_clock(cluster, result)
    if check_no_starvation(cluster, result):
        checked.append("no-starvation")
    if check_cache_bounds(result):
        checked.append("cache-bounds")
    if cluster.fleet is not None:
        check_fleet_placement(cluster)
        checked.append("fleet-placement")
        if check_fleet_failover(cluster):
            checked.append("fleet-failover")
        if check_fleet_rebalance(cluster):
            checked.append("fleet-rebalance")
        if check_replication_repair(cluster):
            checked.append("replication-repair")
    return checked
