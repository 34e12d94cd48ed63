"""Sharded multi-CSD serving: placement, routing, replication, elasticity.

The fleet layer composes N simulated Cold Storage Devices into one
addressable storage service:

* :mod:`repro.fleet.placement` — :class:`ConsistentHashPlacement`: a
  (capacity-weighted) consistent-hash ring with R-way replication, placed in
  bulk and diffed arc by arc between epochs.
* :mod:`repro.fleet.spec` — declarative :class:`FleetSpec` with
  :class:`DeviceFailure`, membership events (:class:`DeviceJoin`,
  :class:`DeviceLeave`, :class:`SetReplication`), heterogeneous
  :class:`DeviceProfile` overrides, read-repair and
  :class:`MigrationThrottle` knobs, embedded in scenario specs.
* :mod:`repro.fleet.membership` — :class:`FleetMembership`, the
  epoch-versioned roster of :class:`FleetMember` objects (and replication
  factor) advanced by every join/leave/failure/R-change; the one place
  life-cycle state is assigned.
* :mod:`repro.fleet.migration` — minimal :class:`MigrationPlan` diffs
  between placement epochs, including replica :class:`KeyTrim` bookkeeping.
* :mod:`repro.fleet.router` — :class:`FleetRouter`, the device-compatible
  GET path: replica choice, completion accounting, queue draining and the
  aggregated views over the devices.
* :mod:`repro.fleet.controller` — :class:`FleetController`, the per-epoch
  control plane over a router: failures, membership events, the feedback
  rebalancer, placement recomputes and migration-plan execution.
* :mod:`repro.fleet.report` — the scenario-report sections (``fleet``,
  ``rebalance``, ``replication``, ``routing``) as plain functions over a
  finished router's and controller's public state.
"""

from repro.fleet.controller import FleetController
from repro.fleet.membership import (
    EpochRecord,
    FleetMember,
    FleetMembership,
    resolve_device_config,
)
from repro.fleet.migration import (
    MIGRATION_OBJECT_BYTES,
    KeyMove,
    KeyTrim,
    MigrationPlan,
    plan_migration,
)
from repro.fleet.placement import (
    VIRTUAL_NODES,
    ConsistentHashPlacement,
    stable_hash,
)
from repro.fleet.router import FleetRouter, FleetRouterStats
from repro.fleet.spec import (
    KNOWN_REPLICA_POLICIES,
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    SetReplication,
    device_name,
)

__all__ = [
    "VIRTUAL_NODES",
    "KNOWN_REPLICA_POLICIES",
    "MIGRATION_OBJECT_BYTES",
    "ConsistentHashPlacement",
    "DeviceFailure",
    "DeviceJoin",
    "DeviceLeave",
    "DeviceProfile",
    "EpochRecord",
    "FleetController",
    "FleetMember",
    "FleetMembership",
    "FleetRouter",
    "FleetRouterStats",
    "FleetSpec",
    "KeyMove",
    "KeyTrim",
    "MigrationPlan",
    "MigrationThrottle",
    "SetReplication",
    "device_name",
    "plan_migration",
    "resolve_device_config",
    "stable_hash",
]
