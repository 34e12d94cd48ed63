"""Epoch-versioned fleet membership.

:class:`FleetMembership` is the single source of truth for *who is in the
fleet right now*: the one roster of :class:`FleetMember` objects — each
device's (possibly heterogeneous) :class:`~repro.csd.device.DeviceConfig`,
its life-cycle state and the runtime book-keeping the router keeps on it —
and the membership **epoch**, a counter advanced by every join, leave and
failure.  Life-cycle state (``alive``, ``joined_at``, ``left_at``,
``failed_at``) is assigned here and nowhere else; the router reads it per
request, the controller asks for the changes, and the epoch log lets reports
attribute per-epoch metrics (imbalance, migration volume) to the exact
membership window they were measured in.

The membership itself performs no simulation events; advancing an epoch is
pure bookkeeping, which is what keeps event-free fleets byte-identical to
the pre-elastic fleet layer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import compress
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.csd.device import ColdStorageDevice, DeviceConfig
from repro.exceptions import ConfigurationError, FleetError
from repro.fleet.spec import EWMA_ALPHA, DeviceJoin, DeviceProfile, FleetSpec, device_name
from repro.obs import Ewma

#: A member's device id and life-cycle flag, read in C by ``serving_ids``.
_device_id = attrgetter("device_id")
_alive = attrgetter("alive")


@dataclass
class FleetMember:
    """One device of the fleet: roster entry, life-cycle state and the
    router's book-keeping about it."""

    device_id: str
    index: int
    config: DeviceConfig
    #: Per-device EWMA of request latency (routed → completed), in simulated
    #: seconds; feeds the ``ewma-latency`` policy and the rebalancer.
    ewma: Ewma
    joined_at: float = 0.0
    left_at: Optional[float] = None
    failed_at: Optional[float] = None
    #: Whether the device is a live placement and routing target (joined,
    #: not left, not failed).  A plain attribute: routing reads it per request.
    alive: bool = True
    #: ``None`` while the placement puts no objects on this device (it then
    #: spins idle but still appears in fleet metrics).
    device: Optional[ColdStorageDevice] = None
    #: Requests routed to this device (including later failed-over ones).
    requests_routed: int = 0
    #: Routed but not yet completed (drives the least-loaded policy).
    outstanding: int = 0
    #: The capacity weight the ring holds for this device (1.0 on a uniform
    #: ring); sizes its vnode share.
    weight: float = 1.0
    #: Sum of completed-request latencies (mean = sum / ewma.count).
    latency_sum: float = 0.0

    def busy_seconds(self) -> float:
        """Busy seconds over the whole run, summed in log order."""
        if self.device is None:
            return 0.0
        # Not ``sum()``: it is compensated on CPython >= 3.12, and the report
        # must not depend on the interpreter.
        total = 0.0
        for interval in self.device.busy_intervals:
            total += interval.end - interval.start
        return total

    def busy_per_window(self, windows: Sequence[Tuple[float, float]]) -> List[float]:
        """Busy seconds inside each ``(start, end)`` window, in one pass over
        the log — every epoch window of the report at once, or the rebalance
        tick's one window.

        The windows are contiguous and sorted (each starts where the one
        before it ends; zero-length ones allowed), so their ends ascend and
        ``bisect`` finds the first window an interval can reach.  Every
        window still adds its positive overlaps in log order, and the
        windows skipped would have added nothing, so each total is the
        whole-log scan's, bit for bit.
        """
        count = len(windows)
        totals = [0.0] * count
        if self.device is None:
            return totals
        ends = [end for _start, end in windows]
        for interval in self.device.busy_intervals:
            low, high = interval.start, interval.end
            index = bisect_right(ends, low)
            while index < count:
                start, end = windows[index]
                if start >= high:
                    break
                overlap = (high if high < end else end) - (low if low > start else start)
                if overlap > 0.0:
                    totals[index] += overlap
                index += 1
        return totals

    def objects_served(self) -> int:
        return self.device.stats.objects_served if self.device else 0

    def pending_requests(self) -> int:
        return self.device.scheduler.pending_count() if self.device else 0


@dataclass(frozen=True)
class EpochRecord:
    """One membership change: which epoch it opened, when, and why."""

    epoch: int
    at_seconds: float
    kind: str  # "join" | "leave" | "failure" | "set-replication" | "reweight"
    device_id: str
    devices_before: int
    devices_after: int
    #: Replication factor in effect from this epoch on.
    replication: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "at_seconds": self.at_seconds,
            "kind": self.kind,
            "device": self.device_id,
            "devices_before": self.devices_before,
            "devices_after": self.devices_after,
            "replication": self.replication,
        }


def resolve_device_config(
    base: DeviceConfig,
    switch_seconds: Optional[float] = None,
    transfer_seconds: Optional[float] = None,
) -> DeviceConfig:
    """Derive a per-device config from the scenario-wide base config."""
    if switch_seconds is None and transfer_seconds is None:
        return base
    return replace(
        base,
        group_switch_seconds=(
            base.group_switch_seconds if switch_seconds is None else switch_seconds
        ),
        transfer_seconds_per_object=(
            base.transfer_seconds_per_object
            if transfer_seconds is None
            else transfer_seconds
        ),
    )


class FleetMembership:
    """The device roster plus the epoch counter over its history."""

    def __init__(self, spec: FleetSpec, base_config: DeviceConfig) -> None:
        self.spec = spec
        self.base_config = base_config
        self.epoch = 0
        #: Replication factor currently in effect (``SetReplication`` events
        #: move it away from ``spec.replication``).
        self.replication = spec.replication
        #: Every membership change, oldest first (epoch 0 has no record:
        #: it is the initial roster).
        self.epoch_log: List[EpochRecord] = []
        self._profile_by_index: Dict[int, DeviceProfile] = {
            profile.device: profile for profile in spec.profiles
        }
        #: Every device ever part of the fleet, in join order.
        self.members: List[FleetMember] = []
        self.by_id: Dict[str, FleetMember] = {}
        for index in range(spec.devices):
            self._add_member(index, joined_at=0.0)

    def _add_member(self, index: int, joined_at: float) -> FleetMember:
        """Add device ``index``, configured by its profile if it has one."""
        profile = self._profile_by_index.get(index)
        member = FleetMember(
            device_id=device_name(index),
            index=index,
            config=resolve_device_config(
                self.base_config,
                switch_seconds=profile.switch_seconds if profile else None,
                transfer_seconds=profile.transfer_seconds if profile else None,
            ),
            ewma=Ewma(EWMA_ALPHA),
            joined_at=joined_at,
        )
        self.members.append(member)
        self.by_id[member.device_id] = member
        return member

    # ------------------------------------------------------------------ #
    # Roster queries
    # ------------------------------------------------------------------ #
    def member(self, device_id: str) -> FleetMember:
        try:
            return self.by_id[device_id]
        except KeyError:
            raise FleetError(f"unknown fleet member {device_id!r}") from None

    def serving_ids(self) -> Tuple[str, ...]:
        """Live placement targets (joined, not left, not failed), in order."""
        members = self.members
        return tuple(compress(map(_device_id, members), map(_alive, members)))

    def profile_weight(self, member: FleetMember) -> float:
        """Static capacity weight of a device: its speed-up over the base
        config's transfer rate (a device twice as fast weighs 2.0)."""
        base = self.base_config.transfer_seconds_per_object
        own = member.config.transfer_seconds_per_object
        if base <= 0 or own <= 0:
            raise ConfigurationError(
                "profile weighting requires positive transfer_seconds_per_object "
                f"(base={base!r}, device={own!r})"
            )
        return base / own

    # ------------------------------------------------------------------ #
    # Membership changes — each advances the epoch
    # ------------------------------------------------------------------ #
    def _advance(self, kind: str, device_id: str, at_seconds: float) -> EpochRecord:
        if self.epoch_log and at_seconds < self.epoch_log[-1].at_seconds:
            raise FleetError(
                f"membership change at {at_seconds} precedes epoch "
                f"{self.epoch}'s change at {self.epoch_log[-1].at_seconds}"
            )
        devices_before = len(self.serving_ids())
        self.epoch += 1
        record = EpochRecord(
            epoch=self.epoch,
            at_seconds=at_seconds,
            kind=kind,
            device_id=device_id,
            devices_before=devices_before,
            # Filled by the caller mutating the roster first would race; the
            # roster is mutated before _advance in every path below.
            devices_after=devices_before,
            replication=self.replication,
        )
        return record

    def join(self, event: DeviceJoin, at_seconds: float) -> FleetMember:
        """Add the joining device to the roster and open a new epoch."""
        device_id = device_name(event.device)
        if device_id in self.by_id:
            raise FleetError(f"device {device_id!r} is already a fleet member")
        epoch = self._advance("join", device_id, at_seconds)
        member = self._add_member(event.device, at_seconds)
        self.epoch_log.append(
            replace(epoch, devices_after=len(self.serving_ids()))
        )
        return member

    def leave(self, device_id: str, at_seconds: float) -> FleetMember:
        """Gracefully retire a member and open a new epoch."""
        member = self.member(device_id)
        if not member.alive:
            raise FleetError(f"device {device_id!r} is not serving; cannot leave")
        epoch = self._advance("leave", device_id, at_seconds)
        member.alive = False
        member.left_at = at_seconds
        self.epoch_log.append(
            replace(epoch, devices_after=len(self.serving_ids()))
        )
        return member

    def fail(self, device_id: str, at_seconds: float) -> FleetMember:
        """Mark a member fail-stopped and open a new epoch (no migration)."""
        member = self.member(device_id)
        if not member.alive:
            raise FleetError(f"device {device_id!r} is not serving; cannot fail")
        epoch = self._advance("failure", device_id, at_seconds)
        member.alive = False
        member.failed_at = at_seconds
        self.epoch_log.append(
            replace(epoch, devices_after=len(self.serving_ids()))
        )
        return member

    def set_replication(self, replication: int, at_seconds: float) -> EpochRecord:
        """Change the replication factor in effect and open a new epoch.

        The roster is untouched; the caller (the controller) diffs the placement
        at the old vs new R and re-replicates or trims accordingly.
        """
        if replication < 1:
            raise FleetError(f"replication factor must be >= 1, got {replication}")
        if replication == self.replication:
            raise FleetError(
                f"replication factor is already {replication}; nothing to change"
            )
        serving = len(self.serving_ids())
        if replication > serving:
            raise FleetError(
                f"cannot raise replication to {replication}: only {serving} "
                "device(s) are serving"
            )
        self.replication = replication
        epoch = self._advance("set-replication", "fleet", at_seconds)
        record = replace(epoch, devices_after=serving)
        self.epoch_log.append(record)
        return record

    def reweight(self, at_seconds: float) -> EpochRecord:
        """Open a new epoch for a placement reweight (roster untouched).

        The feedback rebalancer changes no member's life-cycle state — only
        the capacity weights the ring is built from — but the placement
        still moves, so the change must be epoch-versioned like any other
        recompute: reports and invariants attribute the resulting migration
        plan to this record.
        """
        serving = len(self.serving_ids())
        epoch = self._advance("reweight", "fleet", at_seconds)
        record = replace(epoch, devices_after=serving)
        self.epoch_log.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def epoch_windows(self, end_time: float) -> List[Tuple[int, float, float]]:
        """``(epoch, start, end)`` windows covering ``[0, end_time]``."""
        windows: List[Tuple[int, float, float]] = []
        start = 0.0
        epoch = 0
        for record in self.epoch_log:
            boundary = min(record.at_seconds, end_time)
            windows.append((epoch, start, boundary))
            start = boundary
            epoch = record.epoch
        windows.append((epoch, start, max(start, end_time)))
        return windows
