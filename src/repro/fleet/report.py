"""Scenario-report sections of a fleet run.

Plain functions over the public state of a finished fleet: the
:class:`~repro.fleet.router.FleetRouter`'s members, counters and membership
log, and the :class:`~repro.fleet.controller.FleetController`'s migration
plans, placement-epoch identity and health/rebalancer logs.  The router
routes, the controller rebalances; what a run looked like afterwards is
assembled here, each figure derived from the one place that recorded it.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.metrics import imbalance_coefficient, jain_fairness, mean, percentile
from repro.fleet.spec import EWMA_ALPHA, IMBALANCE_THRESHOLD, MIGRATION_BURST, MIN_WEIGHT_DELTA

if TYPE_CHECKING:
    from repro.fleet.controller import FleetController
    from repro.fleet.router import FleetRouter


def report_sections(
    controller: FleetController, total_simulated_time: float
) -> Dict[str, Dict[str, object]]:
    """Every fleet section of the scenario report, keyed by section name."""
    return {
        "fleet": fleet_metrics(controller.router, total_simulated_time),
        "rebalance": rebalance_metrics(controller, total_simulated_time),
        "replication": replication_metrics(controller),
        "routing": routing_metrics(controller),
    }


def per_epoch_imbalance(
    router: FleetRouter, total_simulated_time: float
) -> List[Dict[str, object]]:
    """Imbalance coefficient of each epoch's membership window.

    Every membership change opens a new epoch, so the member set is
    constant inside each window; a member belongs to a window when it had
    joined by the window's start and neither left nor failed before its
    end.  Each member's log is read once, for every window at a time.
    """
    windows = router.membership.epoch_windows(total_simulated_time)
    spans = [(start, end) for _epoch, start, end in windows]
    busy_by_member = [member.busy_per_window(spans) for member in router.members]
    series: List[Dict[str, object]] = []
    for index, (epoch, start, end) in enumerate(windows):
        busy = [
            member_busy[index]
            for member, member_busy in zip(router.members, busy_by_member)
            if member.joined_at <= start
            and (member.left_at is None or member.left_at >= end)
            and (member.failed_at is None or member.failed_at >= end)
        ]
        series.append(
            {
                "epoch": epoch,
                "start": start,
                "end": end,
                "devices": len(busy),
                "imbalance_coefficient": imbalance_coefficient(busy),
            }
        )
    return series


def rebalance_metrics(
    controller: FleetController, total_simulated_time: float
) -> Dict[str, object]:
    """The ``rebalance`` section of the scenario report."""
    router = controller.router
    stats = router.device_stats
    plans = controller.migration_plans
    return {
        "epoch": router.membership.epoch,
        "events": [record.to_dict() for record in router.membership.epoch_log],
        "plans": [plan.to_dict() for plan in plans],
        "keys_moved_total": sum(plan.keys_moved for plan in plans),
        "objects_migrated_total": sum(plan.objects_migrated for plan in plans),
        "bytes_migrated_total": sum(plan.bytes_migrated for plan in plans),
        "naive_reshuffle_keys": sum(plan.total_keys for plan in plans),
        "migration_seconds_total": stats.migration_seconds,
        "interference_seconds_total": stats.migration_interference_seconds,
        "handed_off_requests": router.stats.handed_off,
        "per_epoch_imbalance": per_epoch_imbalance(router, total_simulated_time),
    }


def replication_metrics(controller: FleetController) -> Dict[str, object]:
    """The ``replication`` health section of the scenario report."""
    router = controller.router
    plans = controller.migration_plans
    repair_plans = [plan for plan in plans if plan.kind == "repair"]
    replicate_plans = [plan for plan in plans if plan.kind == "set-replication"]
    throttle = router.spec.throttle
    throttle_metrics: Optional[Dict[str, object]] = None
    if throttle is not None:
        observed: Dict[str, float] = {}
        for member in router.members:
            if member.device is None:
                continue
            migration_intervals = [
                interval
                for interval in member.device.busy_intervals
                if interval.kind == "migration"
            ]
            if len(migration_intervals) <= MIGRATION_BURST:
                continue
            # Sustained rate between token consumptions (job starts).
            # The first MIGRATION_BURST jobs ride pre-accrued tokens and are
            # spaced only by transfer time, so they are excluded from
            # the numerator: the figure is never above the configured
            # cap, which auditors compare it against.
            window = migration_intervals[-1].start - migration_intervals[0].start
            observed[member.device_id] = (
                (len(migration_intervals) - MIGRATION_BURST) / window
                if window > 0
                else 0.0
            )
        throttle_metrics = {
            "objects_per_second": throttle.objects_per_second,
            "burst": MIGRATION_BURST,
            "deferrals": router.device_stats.migration_deferrals,
            "observed_objects_per_second": observed,
        }
    return {
        "initial_replication": router.spec.replication,
        "replication": router.membership.replication,
        "effective_replication": controller.effective_replication,
        "repair_enabled": router.spec.repair,
        "changes": [
            record.to_dict()
            for record in router.membership.epoch_log
            if record.kind == "set-replication"
        ],
        "per_epoch": list(controller.replication_log),
        "under_replicated_keys": controller.under_replicated_count(
            Counter(router.placement.values())
        ),
        "repair_objects": sum(plan.objects_migrated for plan in repair_plans),
        "repair_seconds": sum(plan.migration_seconds for plan in repair_plans),
        "replicate_objects": sum(plan.objects_migrated for plan in replicate_plans),
        "replicate_seconds": sum(plan.migration_seconds for plan in replicate_plans),
        "replicas_trimmed_total": sum(plan.replicas_trimmed for plan in plans),
        "dropped_migration_jobs": router.stats.dropped_migration_jobs,
        # Migration I/O still queued when the run ended.  The copies
        # already landed at plan time, so nothing is lost — but their
        # charge is missing from migration/interference seconds, and a
        # throttle paced slower than the workload makes this non-zero.
        "unfinished_migration_jobs": sum(
            member.device.pending_migration_jobs()
            for member in router.members
            if member.device is not None
        ),
        "throttle": throttle_metrics,
    }


def routing_metrics(controller: FleetController) -> Dict[str, object]:
    """The ``routing`` section of the scenario report: replica-choice
    split, per-device weights/EWMAs, the fleet-wide latency distribution
    and (when configured) the feedback rebalancer's tick log."""
    router = controller.router
    vnode_counts: Dict[str, int] = dict(
        zip(controller.placement_roster, controller.placement_vnode_counts)
    )
    per_device: Dict[str, Dict[str, object]] = {}
    for member in router.members:
        completed = member.ewma.count
        per_device[member.device_id] = {
            "weight": member.weight,
            # ``None`` for non-ring placements and devices outside the
            # current roster (left / failed members keep no arc share).
            "vnode_count": vnode_counts.get(member.device_id),
            "completed_requests": completed,
            "ewma_latency_seconds": member.ewma.value if completed else None,
            "mean_latency_seconds": (
                member.latency_sum / completed if completed else None
            ),
        }
    # Unboxed once from the router's array; sorted once (``percentile``'s
    # own sort of a sorted list is one pass).  The mean folds the samples
    # in completion order, as they were taken.
    samples = router.stats.request_latency.tolist()
    ordered = sorted(samples)
    request_latency: Dict[str, object] = {
        "count": len(samples),
        "mean": mean(samples),
        "p50": percentile(ordered, 0.50) if ordered else 0.0,
        "p95": percentile(ordered, 0.95) if ordered else 0.0,
        "p99": percentile(ordered, 0.99) if ordered else 0.0,
        "max": ordered[-1] if ordered else 0.0,
    }
    policy = router.spec.rebalance
    rebalancer: Optional[Dict[str, object]] = None
    if policy is not None:
        rebalancer = {
            "interval_seconds": policy.interval_seconds,
            "imbalance_threshold": IMBALANCE_THRESHOLD,
            "min_weight_delta": MIN_WEIGHT_DELTA,
            "ticks": len(controller.rebalance_log),
            "reweight_epochs": sum(
                1 for entry in controller.rebalance_log if entry["triggered"]
            ),
            "log": list(controller.rebalance_log),
        }
    return {
        "replica_policy": router.spec.replica_policy,
        "weighting": router.spec.weighting,
        "ewma_alpha": EWMA_ALPHA,
        "replica_choices": {
            "primary": router.stats.choice_primary,
            "diverted": router.stats.choice_diverted,
        },
        "per_device": per_device,
        "request_latency": request_latency,
        "rebalancer": rebalancer,
    }


def fleet_metrics(router: FleetRouter, total_simulated_time: float) -> Dict[str, object]:
    """Fleet-level metrics section of the scenario report."""
    per_device: Dict[str, Dict[str, object]] = {}
    busy_values: List[float] = []
    for member in router.members:
        busy = member.busy_seconds()
        busy_values.append(busy)
        per_device[member.device_id] = {
            "alive": member.alive,
            "failed_at": member.failed_at,
            "objects_placed": len(member.device.layout.placed_keys) if member.device else 0,
            "objects_served": member.objects_served(),
            "group_switches": (
                member.device.stats.group_switches if member.device else 0
            ),
            "requests_routed": member.requests_routed,
            "busy_seconds": busy,
            "utilization": (
                busy / total_simulated_time if total_simulated_time > 0 else 0.0
            ),
        }

    # Objects served per tenant per device, read from each device's own
    # per-client counters (a tenant's GETs carry its id and fetch its keys).
    served_per_device = [
        member.device.stats.objects_per_client if member.device else {}
        for member in router.members
    ]
    tenants = sorted({tenant for served in served_per_device for tenant in served})
    served_by_tenant = {
        tenant: sum(served.get(tenant, 0) for served in served_per_device)
        for tenant in tenants
    }
    # Per-tenant spread: how evenly each tenant's objects were served
    # across the devices holding at least one replica of its data.  Each
    # member's tenant set is derived once, not once per tenant, from the
    # router's keys per client against its layout: no key is parsed.
    placed_per_device = []
    for member in router.members:
        placed = member.device.layout.placed_keys if member.device else frozenset()
        placed_per_device.append(
            {
                client
                for client, keys in router.client_objects.items()
                if not placed.isdisjoint(keys)
            }
        )
    tenant_spread = {
        tenant: jain_fairness(
            [
                served.get(tenant, 0)
                for served, placed in zip(served_per_device, placed_per_device)
                if tenant in placed
            ]
        )
        for tenant in tenants
    }

    total_served = sum(member.objects_served() for member in router.members)
    return {
        "devices": len(router.members),
        "replication": router.membership.replication,
        "placement": router.policy.name,
        "replica_policy": router.spec.replica_policy,
        "per_device": per_device,
        "imbalance_coefficient": imbalance_coefficient(busy_values),
        "aggregate_throughput": (
            total_served / total_simulated_time if total_simulated_time > 0 else 0.0
        ),
        "tenant_fairness": (
            jain_fairness(list(served_by_tenant.values()))
            if served_by_tenant
            else 1.0
        ),
        "per_tenant_spread": tenant_spread,
        "requests_routed": router.stats.requests_routed,
        "failed_over_requests": router.stats.failed_over,
        "lost_objects": router.pending_total(),
    }
