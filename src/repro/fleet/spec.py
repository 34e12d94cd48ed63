"""Declarative description of a storage fleet.

A :class:`FleetSpec` is pure data, embedded in a
:class:`~repro.scenarios.spec.ScenarioSpec` the same way tenants and device
knobs are: the scenario runner resolves it into a live
:class:`~repro.fleet.router.FleetRouter`.  ``devices=1, replication=1`` is
the degenerate single-CSD setup the original paper reproduces; anything
larger turns the run into a sharded multi-device experiment.

Beyond the static shape (size, replication) a fleet can be
*elastic*: ``events`` lists membership changes — :class:`DeviceJoin`,
:class:`DeviceLeave` and :class:`SetReplication` — that fire at fixed
simulated times and advance the fleet's placement epoch, and ``profiles``
makes the fleet *heterogeneous* by overriding individual devices' — initial
or joining — switch/transfer latencies.

Replication is a *lifecycle*, not a frozen placement parameter:
:class:`SetReplication` raises or lowers R mid-run (re-replicating or
trimming only the affected keys), ``repair`` turns fail-stop losses into a
read-repair pass that restores the lost replicas on surviving owners, and
:class:`MigrationThrottle` rate-limits all of that rebalance I/O with a
per-device token bucket so it interleaves with foreground queries instead
of starving them.

Every field's kind is declared in its annotation (:mod:`repro.spec_fields`);
the ``__post_init__`` methods here hold only the rules that span fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Any, Iterable, List, Literal, Optional, Tuple, Union, get_args

from repro.csd.device import MIGRATION_BURST
from repro.exceptions import ScenarioError
from repro.fleet.placement import VIRTUAL_NODES, ConsistentHashPlacement
from repro.spec_fields import NonNegativeInt, PositiveInt, PositiveSeconds, Seconds, Spec, Time

#: Replica-choice policy names resolvable by the router.  ``least-loaded``
#: is the queue-length policy; ``ewma-latency`` scores replicas by expected
#: wait (EWMA of observed latency times queue depth).
ReplicaPolicy = Literal["primary-first", "least-loaded", "ewma-latency"]
KNOWN_REPLICA_POLICIES = get_args(ReplicaPolicy)

#: Placement-weighting modes: ``uniform`` keeps the classic hash-uniform
#: ring; ``profile`` sizes each device's vnode count by its transfer-speed
#: factor relative to the scenario-wide base device.
Weighting = Literal["uniform", "profile"]
KNOWN_WEIGHTINGS = get_args(Weighting)

#: Smoothing factor of the per-device latency EWMA feeding the
#: ``ewma-latency`` policy and the rebalancer.
EWMA_ALPHA = 0.3
#: Busy-time imbalance coefficient past which the rebalancer reweights.
IMBALANCE_THRESHOLD = 0.2
#: Minimum max-abs change in any normalised weight for a rebalancer tick to
#: open a reweight epoch; damps oscillation between near-identical placements.
MIN_WEIGHT_DELTA = 0.05


def device_name(index: int) -> str:
    """Canonical identifier of the ``index``-th device of a fleet."""
    return f"csd{index}"


def _at_most_once(devices: Iterable[int], what: str) -> None:
    listed = list(devices)
    if len(set(listed)) != len(listed):
        raise ScenarioError(f"each device may {what} at most once")


@dataclass(frozen=True)
class DeviceFailure(Spec, error=ScenarioError):
    """A device going dark (fail-stop) at a fixed simulated time.

    The device finishes the transfer it is performing at that instant, then
    stops serving; every request still queued on it is failed over to a live
    replica by the router.  A failure advances the fleet's membership epoch
    but — unlike a graceful :class:`DeviceLeave` — triggers no migration:
    the dead device's data is simply re-served from surviving replicas.
    """

    device: NonNegativeInt
    at_seconds: Seconds


@dataclass(frozen=True)
class DeviceJoin(Spec, error=ScenarioError):
    """A new device joining the fleet at a fixed simulated time.

    The join advances the membership epoch: placement is recomputed over the
    enlarged fleet and only the keys whose replica set changed are migrated
    onto the joiner (consistent hashing keeps that to ~R·K/(N+1) of K keys).
    A :class:`DeviceProfile` for the joiner's index gives it its own latencies
    (e.g. a faster generation of hardware), as it does an initial device.
    """

    kind = "join"
    REPORTED = {"switch_seconds": None, "transfer_seconds": None}

    device: NonNegativeInt
    at_seconds: Seconds


@dataclass(frozen=True)
class DeviceLeave(Spec, error=ScenarioError):
    """A device leaving the fleet gracefully at a fixed simulated time.

    The leave advances the membership epoch: placement is recomputed over
    the shrunken fleet, the leaver's queued requests are handed off to the
    new owners, and every key that held a replica on the leaver is migrated
    (read charged to a surviving source, write to the destination) before
    the device is decommissioned.
    """

    kind = "leave"

    device: NonNegativeInt
    at_seconds: Seconds


@dataclass(frozen=True)
class DeviceProfile(Spec, error=ScenarioError):
    """Per-device latency overrides making the fleet heterogeneous.

    ``None`` fields inherit the scenario-wide device config, so a profile
    can make one device slower at switching, faster at transferring, or
    both.
    """

    device: NonNegativeInt
    switch_seconds: Optional[Seconds] = None
    transfer_seconds: Optional[Seconds] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.switch_seconds is None and self.transfer_seconds is None:
            raise ScenarioError(
                f"profile for device {self.device} overrides nothing; drop it"
            )


@dataclass(frozen=True)
class SetReplication(Spec, error=ScenarioError):
    """A replication-factor change fired at a fixed simulated time.

    The change advances the membership epoch and diffs the placement at the
    old vs new R over the current serving roster.  Raising R re-replicates
    every key onto its new owners (write-path replication charged as
    migration I/O); lowering R trims the surplus replicas from the placement
    — trims are pure bookkeeping (layouts are append-only) and never drop a
    key's last live replica, which the ``replication-repair`` invariant pins.
    """

    kind = "set-replication"

    replication: PositiveInt
    at_seconds: Seconds


@dataclass(frozen=True)
class MigrationThrottle(Spec, error=ScenarioError):
    """Token-bucket rate limit on rebalance I/O, per device.

    Each device accrues ``objects_per_second`` migration tokens (up to
    :data:`MIGRATION_BURST`); a migration read/write consumes one.  With no
    tokens left, pending foreground queries are served first and the
    deferral is counted; an otherwise idle device simply waits for the
    bucket to refill.  Without a throttle, migration work runs at strict
    priority over queries.
    """

    REPORTED = {"burst": MIGRATION_BURST}

    objects_per_second: Annotated[float, Time(positive=True)]


@dataclass(frozen=True)
class RebalancePolicy(Spec, error=ScenarioError):
    """Feedback-driven reweighting: watch observed load, re-place past a
    threshold.

    Every ``interval_seconds`` of simulated time the controller computes the
    imbalance coefficient of per-device busy time over the elapsed window.
    When it exceeds :data:`IMBALANCE_THRESHOLD` — and every serving device
    has at least one latency sample — the controller derives fresh capacity
    weights from the inverse of each device's latency EWMA, and (unless the
    weights moved less than :data:`MIN_WEIGHT_DELTA` from the current ones)
    opens a ``reweight`` epoch whose migration plan executes through the
    normal throttled-migration machinery.
    """

    REPORTED = {
        "imbalance_threshold": IMBALANCE_THRESHOLD,
        "min_weight_delta": MIN_WEIGHT_DELTA,
    }

    interval_seconds: PositiveSeconds


#: One ``FleetSpec.events`` entry (device failures go in ``failures``).
FleetEvent = Union[DeviceJoin, DeviceLeave, SetReplication]


@dataclass(frozen=True)
class FleetSpec(Spec, error=ScenarioError):
    """Sharded multi-device fleet: size, replication, routing, elasticity."""

    #: The one placement there is, its ring size and the EWMA smoothing.
    REPORTED = {
        "placement": ConsistentHashPlacement.name,
        "virtual_nodes": VIRTUAL_NODES,
        "ewma_alpha": EWMA_ALPHA,
    }

    devices: PositiveInt = 2
    replication: PositiveInt = 1
    replica_policy: ReplicaPolicy = "primary-first"
    failures: Tuple[DeviceFailure, ...] = ()
    #: Membership changes (joins / graceful leaves / replication-factor
    #: changes) fired at simulated times.
    events: Tuple[FleetEvent, ...] = ()
    #: Per-device latency overrides (heterogeneous fleets).
    profiles: Tuple[DeviceProfile, ...] = ()
    #: Read-repair after fail-stop losses: with R >= 2, the lost replicas are
    #: re-created on surviving owners as charged migration I/O.  ``False``
    #: pins the pre-repair behaviour (the fleet silently stays
    #: under-replicated after a failure).
    repair: bool = True
    #: Rate limit on migration/repair I/O; ``None`` keeps strict priority.
    throttle: Optional[MigrationThrottle] = None
    #: How the consistent-hash ring sizes per-device vnode counts:
    #: ``uniform`` (hash-uniform key shares, the classic ring) or
    #: ``profile`` (vnode count ∝ the device's transfer-speed factor).
    weighting: Weighting = "uniform"
    #: Feedback-driven reweighting controller; ``None`` disables it.
    rebalance: Optional[RebalancePolicy] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replication > self.devices:
            raise ScenarioError(
                f"replication must be between 1 and the fleet size "
                f"({self.devices}), got {self.replication}"
            )
        self._validate_failures()
        self._validate_events()
        self._validate_timeline()
        self._validate_profiles()

    def _validate_failures(self) -> None:
        if any(failure.device >= self.devices for failure in self.failures):
            raise ScenarioError(
                f"failure device index out of range for a {self.devices}-device fleet"
            )
        _at_most_once((failure.device for failure in self.failures), "fail")

    def _validate_events(self) -> None:
        joins, leaves = self.joins, self.leaves
        if any(event.device < self.devices for event in joins):
            raise ScenarioError(
                f"joining devices must use fresh indexes >= {self.devices} "
                f"(the initial fleet is csd0..csd{self.devices - 1})"
            )
        _at_most_once((event.device for event in joins), "join")
        _at_most_once((event.device for event in leaves), "leave")
        join_time_by_index = {event.device: event.at_seconds for event in joins}
        failed_indexes = {failure.device for failure in self.failures}
        for leave in leaves:
            if leave.device in failed_indexes:
                raise ScenarioError(
                    f"device {leave.device} both fails and leaves; pick one"
                )
            if leave.device >= self.devices:
                joined_at = join_time_by_index.get(leave.device)
                if joined_at is None:
                    raise ScenarioError(
                        f"device {leave.device} leaves but never joins the fleet"
                    )
                if joined_at >= leave.at_seconds:
                    raise ScenarioError(
                        f"device {leave.device} must join strictly before it leaves"
                    )

    def _validate_timeline(self) -> None:
        """Walk failures and events in firing order, tracking serving count
        and the replication factor in effect.

        Changes fire by timestamp, ties broken by process-creation order
        (failures are registered before events, each in listed order).  The
        final counts alone are not enough: a leave can transiently
        under-replicate the fleet even if a later join restores it, and a
        failure is only survivable under the R in effect *at that instant*.
        """
        if not self.failures and not self.events:
            return
        changes: List[Tuple[float, int, object, Any]] = []
        for index, failure in enumerate(self.failures):
            changes.append((failure.at_seconds, index, "failure", failure))
        for index, event in enumerate(self.events):
            changes.append((event.at_seconds, len(self.failures) + index, event.kind, event))
        serving = self.devices
        replication = self.replication
        failures_seen = 0
        for _at, _order, kind, change in sorted(changes, key=lambda item: item[:2]):
            if kind == "failure":
                failures_seen += 1
                if replication < 2:
                    raise ScenarioError(
                        "device failures require replication >= 2 at the "
                        "failure instant; with a single replica the failed "
                        "device's queued objects would be lost"
                    )
                if self.repair:
                    # Each loss is re-replicated before the next change, so
                    # the cumulative failure budget resets; what must hold is
                    # that every failure still finds a surviving replica to
                    # repair from.
                    if serving < 2:
                        raise ScenarioError(
                            "a failure at this point would leave no surviving "
                            "device to repair from; reorder the events or "
                            "keep more devices serving"
                        )
                elif failures_seen >= replication:
                    raise ScenarioError(
                        f"at most replication-1 devices may fail "
                        f"(R={replication}); otherwise some object could "
                        "lose every replica (enable repair to re-replicate "
                        "between well-spaced losses)"
                    )
                serving -= 1
                continue
            if kind == "set-replication":
                if change.replication == replication:
                    raise ScenarioError(
                        f"SetReplication at {change.at_seconds} sets the "
                        f"factor to {replication}, which it already is"
                    )
                if change.replication > serving:
                    raise ScenarioError(
                        f"SetReplication to {change.replication} at "
                        f"{change.at_seconds} exceeds the {serving} device(s) "
                        "serving at that instant"
                    )
                replication = change.replication
                continue
            serving += 1 if kind == "join" else -1
            # Fail-stop losses route around the dead replicas without a
            # placement recompute; only joins/leaves re-place over the
            # serving set, which must then hold at least R devices.
            if serving < replication:
                raise ScenarioError(
                    f"membership timeline drops the fleet to {serving} "
                    f"serving device(s), below the replication factor "
                    f"{replication}; reorder the events or lower R"
                )

    def _validate_profiles(self) -> None:
        known = set(range(self.devices)) | {event.device for event in self.joins}
        _at_most_once((profile.device for profile in self.profiles), "carry a profile")
        for profile in self.profiles:
            if profile.device not in known:
                raise ScenarioError(
                    f"profile for unknown device index {profile.device} "
                    f"(fleet has csd0..csd{self.devices - 1} plus joins)"
                )

    @property
    def device_ids(self) -> Tuple[str, ...]:
        """Canonical identifiers of the fleet's *initial* devices."""
        return tuple(device_name(index) for index in range(self.devices))

    @property
    def joins(self) -> Tuple[DeviceJoin, ...]:
        """The join events, in listed order."""
        return tuple(event for event in self.events if isinstance(event, DeviceJoin))

    @property
    def leaves(self) -> Tuple[DeviceLeave, ...]:
        """The leave events, in listed order."""
        return tuple(event for event in self.events if isinstance(event, DeviceLeave))

    @property
    def heterogeneous(self) -> bool:
        """Whether any device deviates from the scenario-wide config."""
        return bool(self.profiles)
