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
makes the fleet *heterogeneous* by overriding individual devices'
switch/transfer latencies.

Replication is a *lifecycle*, not a frozen placement parameter:
:class:`SetReplication` raises or lowers R mid-run (re-replicating or
trimming only the affected keys), ``repair`` turns fail-stop losses into a
read-repair pass that restores the lost replicas on surviving owners, and
:class:`MigrationThrottle` rate-limits all of that rebalance I/O with a
per-device token bucket so it interleaves with foreground queries instead
of starving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import ScenarioError, is_count, is_time
from repro.fleet.placement import DEFAULT_VIRTUAL_NODES, ConsistentHashPlacement

#: Replica-choice policy names resolvable by the router.  ``least-loaded``
#: is the queue-length policy; ``ewma-latency`` scores replicas by expected
#: wait (EWMA of observed latency times queue depth).
KNOWN_REPLICA_POLICIES = ("primary-first", "least-loaded", "ewma-latency")

#: Placement-weighting modes: ``uniform`` keeps the classic hash-uniform
#: ring; ``profile`` sizes each device's vnode count by its transfer-speed
#: factor relative to the scenario-wide base device.
KNOWN_WEIGHTINGS = ("uniform", "profile")

#: Default smoothing factor for the router's per-device latency EWMA.
DEFAULT_EWMA_ALPHA = 0.3


def device_name(index: int) -> str:
    """Canonical identifier of the ``index``-th device of a fleet."""
    return f"csd{index}"


def _validate_event_time(label: str, at_seconds: float) -> None:
    if not is_time(at_seconds):
        raise ScenarioError(
            f"{label} time must be finite and non-negative, got {at_seconds!r}"
        )


def _validate_device_index(label: str, device: int) -> None:
    if not is_count(device, minimum=0):
        raise ScenarioError(f"{label} device index must be an integer >= 0, got {device!r}")


def _validate_override(label: str, name: str, value: Optional[float]) -> None:
    """A per-device latency override: ``None`` (inherit) or a time."""
    if value is not None and not is_time(value):
        raise ScenarioError(f"{label} {name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class DeviceFailure:
    """A device going dark (fail-stop) at a fixed simulated time.

    The device finishes the transfer it is performing at that instant, then
    stops serving; every request still queued on it is failed over to a live
    replica by the router.  A failure advances the fleet's membership epoch
    but — unlike a graceful :class:`DeviceLeave` — triggers no migration:
    the dead device's data is simply re-served from surviving replicas.
    """

    device: int
    at_seconds: float

    def __post_init__(self) -> None:
        _validate_device_index("failure", self.device)
        _validate_event_time("failure", self.at_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {"device": self.device, "at_seconds": self.at_seconds}


@dataclass(frozen=True)
class DeviceJoin:
    """A new device joining the fleet at a fixed simulated time.

    The join advances the membership epoch: placement is recomputed over the
    enlarged fleet and only the keys whose replica set changed are migrated
    onto the joiner (consistent hashing keeps that to ~R·K/(N+1) of K keys).
    ``switch_seconds`` / ``transfer_seconds`` optionally give the joiner its
    own device profile (e.g. a faster generation of hardware).
    """

    device: int
    at_seconds: float
    switch_seconds: Optional[float] = None
    transfer_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_device_index("join", self.device)
        _validate_event_time("join", self.at_seconds)
        _validate_override("join", "switch_seconds", self.switch_seconds)
        _validate_override("join", "transfer_seconds", self.transfer_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "join",
            "device": self.device,
            "at_seconds": self.at_seconds,
            "switch_seconds": self.switch_seconds,
            "transfer_seconds": self.transfer_seconds,
        }


@dataclass(frozen=True)
class DeviceLeave:
    """A device leaving the fleet gracefully at a fixed simulated time.

    The leave advances the membership epoch: placement is recomputed over
    the shrunken fleet, the leaver's queued requests are handed off to the
    new owners, and every key that held a replica on the leaver is migrated
    (read charged to a surviving source, write to the destination) before
    the device is decommissioned.
    """

    device: int
    at_seconds: float

    def __post_init__(self) -> None:
        _validate_device_index("leave", self.device)
        _validate_event_time("leave", self.at_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "leave", "device": self.device, "at_seconds": self.at_seconds}


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device latency overrides making the fleet heterogeneous.

    ``None`` fields inherit the scenario-wide device config, so a profile
    can make one device slower at switching, faster at transferring, or
    both.
    """

    device: int
    switch_seconds: Optional[float] = None
    transfer_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_device_index("profile", self.device)
        if self.switch_seconds is None and self.transfer_seconds is None:
            raise ScenarioError(
                f"profile for device {self.device} overrides nothing; drop it"
            )
        _validate_override("profile", "switch_seconds", self.switch_seconds)
        _validate_override("profile", "transfer_seconds", self.transfer_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "switch_seconds": self.switch_seconds,
            "transfer_seconds": self.transfer_seconds,
        }


@dataclass(frozen=True)
class SetReplication:
    """A replication-factor change fired at a fixed simulated time.

    The change advances the membership epoch and diffs the placement at the
    old vs new R over the current serving roster.  Raising R re-replicates
    every key onto its new owners (write-path replication charged as
    migration I/O); lowering R trims the surplus replicas from the placement
    — trims are pure bookkeeping (layouts are append-only) and never drop a
    key's last live replica, which the ``replication-repair`` invariant pins.
    """

    replication: int
    at_seconds: float

    def __post_init__(self) -> None:
        if not is_count(self.replication):
            raise ScenarioError(
                f"replication factor must be an integer >= 1, got {self.replication!r}"
            )
        _validate_event_time("set-replication", self.at_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "set-replication",
            "replication": self.replication,
            "at_seconds": self.at_seconds,
        }


@dataclass(frozen=True)
class MigrationThrottle:
    """Token-bucket rate limit on rebalance I/O, per device.

    Each device accrues ``objects_per_second`` migration tokens (up to
    ``burst``); a migration read/write consumes one.  With no tokens left,
    pending foreground queries are served first and the deferral is counted;
    an otherwise idle device simply waits for the bucket to refill.  Without
    a throttle, migration work runs at strict priority over queries (the
    pre-throttle behaviour).
    """

    objects_per_second: float
    burst: int = 1

    def __post_init__(self) -> None:
        if not is_time(self.objects_per_second) or self.objects_per_second <= 0:
            raise ScenarioError(
                "throttle objects_per_second must be finite and positive, "
                f"got {self.objects_per_second!r}"
            )
        if not is_count(self.burst):
            raise ScenarioError(
                f"throttle burst must be an integer >= 1, got {self.burst!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "objects_per_second": self.objects_per_second,
            "burst": self.burst,
        }


@dataclass(frozen=True)
class RebalancePolicy:
    """Feedback-driven reweighting: watch observed load, re-place past a
    threshold.

    Every ``interval_seconds`` of simulated time the controller computes the
    imbalance coefficient of per-device busy time over the elapsed window.
    When it exceeds ``imbalance_threshold`` — and every serving device has
    at least one latency sample — the controller derives fresh capacity
    weights from the inverse of each device's latency EWMA, and (unless the
    weights moved less than ``min_weight_delta`` from the current ones)
    opens a ``reweight`` epoch whose migration plan executes through the
    normal throttled-migration machinery.
    """

    interval_seconds: float
    imbalance_threshold: float = 0.2
    #: Minimum max-abs change in any normalised weight for a tick to emit a
    #: reweight epoch; damps oscillation between near-identical placements.
    min_weight_delta: float = 0.05

    def __post_init__(self) -> None:
        if not is_time(self.interval_seconds) or self.interval_seconds <= 0:
            raise ScenarioError(
                "rebalance interval_seconds must be finite and positive, "
                f"got {self.interval_seconds!r}"
            )
        if not is_time(self.imbalance_threshold):
            raise ScenarioError(
                "rebalance imbalance_threshold must be finite and "
                f"non-negative, got {self.imbalance_threshold!r}"
            )
        if not is_time(self.min_weight_delta):
            raise ScenarioError(
                "rebalance min_weight_delta must be finite and non-negative, "
                f"got {self.min_weight_delta!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval_seconds": self.interval_seconds,
            "imbalance_threshold": self.imbalance_threshold,
            "min_weight_delta": self.min_weight_delta,
        }


#: Membership events accepted by ``FleetSpec.events``.
MembershipEvent = (DeviceJoin, DeviceLeave, SetReplication)

#: Static type of one ``FleetSpec.events`` entry (``_validate_events``
#: still enforces membership at runtime, with a pointed error message).
FleetEvent = Union[DeviceJoin, DeviceLeave, SetReplication]


@dataclass(frozen=True)
class FleetSpec:
    """Sharded multi-device fleet: size, replication, routing, elasticity."""

    devices: int = 2
    replication: int = 1
    replica_policy: str = "primary-first"
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
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
    weighting: str = "uniform"
    #: Smoothing factor of the per-device latency EWMA feeding the
    #: ``ewma-latency`` policy and the rebalancer (0 < alpha <= 1).
    ewma_alpha: float = DEFAULT_EWMA_ALPHA
    #: Feedback-driven reweighting controller; ``None`` disables it.
    rebalance: Optional[RebalancePolicy] = None

    def __post_init__(self) -> None:
        if not is_count(self.devices):
            raise ScenarioError(
                f"fleet needs an integer number of devices >= 1, got {self.devices!r}"
            )
        if not is_count(self.replication) or self.replication > self.devices:
            raise ScenarioError(
                f"replication must be between 1 and the fleet size "
                f"({self.devices}), got {self.replication}"
            )
        if self.replica_policy not in KNOWN_REPLICA_POLICIES:
            raise ScenarioError(
                f"unknown replica policy {self.replica_policy!r}; "
                f"expected one of {sorted(KNOWN_REPLICA_POLICIES)}"
            )
        if not is_count(self.virtual_nodes):
            raise ScenarioError(
                f"virtual_nodes must be an integer >= 1, got {self.virtual_nodes!r}"
            )
        if self.throttle is not None and not isinstance(self.throttle, MigrationThrottle):
            raise ScenarioError(
                f"throttle must be a MigrationThrottle or None, got {self.throttle!r}"
            )
        if self.weighting not in KNOWN_WEIGHTINGS:
            raise ScenarioError(
                f"unknown weighting {self.weighting!r}; "
                f"expected one of {sorted(KNOWN_WEIGHTINGS)}"
            )
        if not is_time(self.ewma_alpha) or not 0 < self.ewma_alpha <= 1:
            raise ScenarioError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}"
            )
        if self.rebalance is not None and not isinstance(self.rebalance, RebalancePolicy):
            raise ScenarioError(
                f"rebalance must be a RebalancePolicy or None, got {self.rebalance!r}"
            )
        self._validate_failures()
        self._validate_events()
        self._validate_timeline()
        self._validate_profiles()

    def _validate_failures(self) -> None:
        failed = [failure.device for failure in self.failures]
        if any(index >= self.devices for index in failed):
            raise ScenarioError(
                f"failure device index out of range for a {self.devices}-device fleet"
            )
        if len(set(failed)) != len(failed):
            raise ScenarioError("each device may fail at most once")

    def _validate_events(self) -> None:
        if not self.events:
            return
        joins = list(self.joins)
        leaves = list(self.leaves)
        r_changes = [event for event in self.events if isinstance(event, SetReplication)]
        if len(joins) + len(leaves) + len(r_changes) != len(self.events):
            bad = next(
                event
                for event in self.events
                if not isinstance(event, MembershipEvent)
            )
            raise ScenarioError(
                f"fleet events must be DeviceJoin, DeviceLeave or "
                f"SetReplication, got {bad!r} (device failures go in "
                "FleetSpec.failures)"
            )
        join_indexes = [event.device for event in joins]
        if any(index < self.devices for index in join_indexes):
            raise ScenarioError(
                f"joining devices must use fresh indexes >= {self.devices} "
                f"(the initial fleet is csd0..csd{self.devices - 1})"
            )
        if len(set(join_indexes)) != len(join_indexes):
            raise ScenarioError("each device may join at most once")
        join_time_by_index = {event.device: event.at_seconds for event in joins}
        leave_indexes = [event.device for event in leaves]
        if len(set(leave_indexes)) != len(leave_indexes):
            raise ScenarioError("each device may leave at most once")
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
            changes.append(
                (
                    event.at_seconds,
                    len(self.failures) + index,
                    event.to_dict()["kind"],
                    event,
                )
            )
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
        known = set(range(self.devices)) | {
            event.device for event in self.events if isinstance(event, DeviceJoin)
        }
        profiled = [profile.device for profile in self.profiles]
        if len(set(profiled)) != len(profiled):
            raise ScenarioError("each device may carry at most one profile")
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
    def replication_changes(self) -> Tuple[SetReplication, ...]:
        """The replication-factor changes, in listed order."""
        return tuple(
            event for event in self.events if isinstance(event, SetReplication)
        )

    @property
    def heterogeneous(self) -> bool:
        """Whether any device deviates from the scenario-wide config."""
        return bool(self.profiles) or any(
            event.switch_seconds is not None or event.transfer_seconds is not None
            for event in self.joins
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "devices": self.devices,
            "replication": self.replication,
            # The one placement there is; the key stays until the next
            # report-schema bump so every golden is byte-identical.
            "placement": ConsistentHashPlacement.name,
            "replica_policy": self.replica_policy,
            "virtual_nodes": self.virtual_nodes,
            "failures": [failure.to_dict() for failure in self.failures],
            "events": [event.to_dict() for event in self.events],
            "profiles": [profile.to_dict() for profile in self.profiles],
            "repair": self.repair,
            "throttle": self.throttle.to_dict() if self.throttle is not None else None,
            "weighting": self.weighting,
            "ewma_alpha": self.ewma_alpha,
            "rebalance": (
                self.rebalance.to_dict() if self.rebalance is not None else None
            ),
        }
