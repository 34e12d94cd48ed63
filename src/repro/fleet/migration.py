"""Minimal migration plans between placement epochs.

When the fleet membership changes, the placement is recomputed over the new
device set and the two placements are diffed: only the keys whose replica
set actually changed move, each as one :class:`KeyMove` per gained replica
(read charged to a surviving source device, write to the destination).
Consistent hashing guarantees the plan stays near the information-theoretic
minimum — ~R·K/(N+1) of K keys for a join into an N-device fleet — which
the ``bounded-migration`` invariant pins against the naive full reshuffle.

Planning costs per replica-set *shape*, not per key.  Placement values are
the ring's shared per-arc tuples, so an epoch's changed keys carry at most
ring-size distinct ``(old replicas, new replicas)`` pairs; everything a pair
decides — the dropped devices and their live survivors, the candidate
destinations, the read source — is worked out once per pair.  Per key only
the residency probe and the appends of the plan's tuple records remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Container, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: Nominal object size used to report migration volume in bytes.  Objects in
#: the paper's setup are ~1 GB Swift blobs; the simulator does not model
#: payload sizes, so migration volume scales with the object count.
MIGRATION_OBJECT_BYTES = 1 << 30

#: ``_tuple_new(KeyMove, fields)`` is ``KeyMove(*fields)`` without the Python
#: frame of the generated ``__new__`` (likewise for ``KeyTrim``): the planner
#: builds one record per move and per trim.
_tuple_new = tuple.__new__
_object_key = attrgetter("object_key")


class KeyMove(NamedTuple):
    """One replica copy: ``object_key`` streamed from ``source`` to ``dest``."""

    object_key: str
    source: str
    dest: str


class KeyTrim(NamedTuple):
    """One replica dropped from the placement (no I/O; layouts are
    append-only, so the object physically stays where it was).

    ``survivors`` counts the *live* devices in the key's replica set after
    the trim — the ``replication-repair`` invariant pins it at >= 1.  A
    placement recomputed over the serving roster always leaves live
    survivors; the count exists to catch a regression that diffs against a
    placement containing dead devices (e.g. computed over a stale roster),
    where a trim really could strand a key on corpses.
    """

    object_key: str
    device: str
    survivors: int


@dataclass
class MigrationPlan:
    """Everything one membership epoch moves, plus its execution totals."""

    epoch: int
    at_seconds: float
    kind: str  # "join" | "leave" | "repair" | "set-replication" | "reweight"
    device_id: str
    moves: List[KeyMove]
    total_keys: int
    devices_before: int
    devices_after: int
    replication: int = 1
    #: Replicas dropped from the placement by this epoch (R down, or a key's
    #: replica set shifting away from a device on a join/leave).
    trims: List[KeyTrim] = field(default_factory=list)
    #: Simulated seconds of migration I/O actually charged (filled in by the
    #: controller as source reads and destination writes execute).
    migration_seconds: float = 0.0
    _moved_keys: Tuple[str, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        self._moved_keys = tuple(dict.fromkeys(map(_object_key, self.moves)))

    @property
    def keys_moved(self) -> int:
        """Distinct keys whose replica set changed (the minimality metric)."""
        return len(self._moved_keys)

    @property
    def objects_migrated(self) -> int:
        """Replica copies performed (>= keys_moved when R > 1 shifts twice)."""
        return len(self.moves)

    @property
    def bytes_migrated(self) -> int:
        """Nominal bytes streamed between devices by this plan."""
        return self.objects_migrated * MIGRATION_OBJECT_BYTES

    def migration_bound(self) -> int:
        """Conservative upper bound on ``keys_moved`` for a minimal plan.

        A single join/leave on a consistent-hash ring relocates an expected
        ``R·K/N`` of K keys (N the smaller fleet size); doubling that absorbs
        hash variance at realistic vnode counts.  The same bound covers a
        read-repair pass (the dead device held ~R·K/N keys).  The naive
        comparator — a full reshuffle — moves all K keys, so the bound is
        also capped there.  A replication-factor change is the one
        legitimate full sweep: raising R gives *every* key a new replica, so
        its bound is all K keys.  A ``reweight`` epoch shares the full-sweep
        bound: shifting capacity weights resizes every device's arc share at
        once, so the fraction moved is set by the weight delta, not by 1/N.
        """
        if self.kind in ("set-replication", "reweight"):
            return self.total_keys
        smaller_fleet = max(1, min(self.devices_before, self.devices_after))
        return min(
            self.total_keys,
            -(-2 * self.replication * self.total_keys // smaller_fleet),
        )

    @property
    def keys_trimmed(self) -> int:
        """Distinct keys that lost at least one placement replica."""
        return len(set(map(_object_key, self.trims)))

    @property
    def replicas_trimmed(self) -> int:
        """Placement replicas dropped by this plan (no I/O charged)."""
        return len(self.trims)

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "at_seconds": self.at_seconds,
            "kind": self.kind,
            "device": self.device_id,
            "keys_moved": self.keys_moved,
            "objects_migrated": self.objects_migrated,
            "bytes_migrated": self.bytes_migrated,
            "keys_trimmed": self.keys_trimmed,
            "replicas_trimmed": self.replicas_trimmed,
            "migration_seconds": self.migration_seconds,
            "devices_before": self.devices_before,
            "devices_after": self.devices_after,
        }


def plan_migration(
    epoch: int,
    at_seconds: float,
    kind: str,
    device_id: str,
    old_placement: Mapping[str, Sequence[str]],
    new_placement: Mapping[str, Sequence[str]],
    alive: Optional[Mapping[str, bool]] = None,
    devices_before: int = 0,
    devices_after: int = 0,
    replication: int = 1,
    resident: Optional[Mapping[str, Container[str]]] = None,
    changed_keys: Optional[Sequence[str]] = None,
) -> MigrationPlan:
    """Diff two placements into the minimal set of replica copies.

    For every key whose replica set gained a device, one :class:`KeyMove`
    streams the key from a surviving old replica (the first live one; when
    none is live, the departing ``device_id`` itself if it held the key —
    a leaver legitimately performs its decommissioning reads — and only
    then the primary, whatever its state).  Keys whose replica set is
    unchanged never appear — the "minimal plan" property the hypothesis
    suite checks.  ``resident`` maps a device id to the keys the device
    still physically holds (its layout's placed keys): a copy whose
    destination already holds the object from an earlier epoch is skipped
    (replica sets can return to a former owner after several membership
    changes); such re-adoptions cost no I/O.  A device missing from the
    mapping holds nothing.

    Replicas *dropped* from a key's set (lowering R trims every key;
    joins/leaves shift sets away from devices) are recorded as
    :class:`KeyTrim` entries: pure placement bookkeeping, no I/O, each
    carrying the size of the key's surviving replica set.

    ``changed_keys``, when provided, must be exactly the keys whose replica
    set differs between the two placements, in ``old_placement`` iteration
    order; the diff then skips the (typically vast) unchanged majority.
    Keys with identical replica sets contribute neither moves nor trims, so
    the resulting plan is identical to a full scan.

    Each distinct ``(old, new)`` replica-tuple pair is resolved once (see
    the module docstring); moves and trims come out in key order, a key's
    trims and moves in replica order.
    """
    moves: List[KeyMove] = []
    trims: List[KeyTrim] = []
    append_move = moves.append
    append_trim = trims.append
    shapes: Dict[Tuple[Sequence[str], Sequence[str]], _Shape] = {}
    for object_key in old_placement if changed_keys is None else changed_keys:
        old_replicas = old_placement[object_key]
        new_replicas = new_placement[object_key]
        pair = (old_replicas, new_replicas)
        shape = shapes.get(pair)
        if shape is None:
            shape = shapes[pair] = _shape(
                old_replicas, new_replicas, alive, device_id, resident
            )
        dropped, survivors, candidates, source = shape
        for device in dropped:
            append_trim(_tuple_new(KeyTrim, (object_key, device, survivors)))
        for dest, held in candidates:
            if object_key not in held:
                append_move(_tuple_new(KeyMove, (object_key, source, dest)))
    return MigrationPlan(
        epoch=epoch,
        at_seconds=at_seconds,
        kind=kind,
        device_id=device_id,
        moves=moves,
        trims=trims,
        total_keys=len(old_placement),
        devices_before=devices_before,
        devices_after=devices_after,
        replication=replication,
    )


#: What one ``(old, new)`` replica-tuple pair decides for every key it
#: covers: the dropped devices, the live survivor count, the candidate
#: destinations (each with the keys it already holds) and the read source
#: (``""`` when there is no candidate).
_Shape = Tuple[Tuple[str, ...], int, Tuple[Tuple[str, Container[str]], ...], str]


def _shape(
    old_replicas: Sequence[str],
    new_replicas: Sequence[str],
    alive: Optional[Mapping[str, bool]],
    device_id: str,
    resident: Optional[Mapping[str, Container[str]]],
) -> _Shape:
    """Resolve one replica-tuple pair for :func:`plan_migration`."""
    dropped = tuple([device for device in old_replicas if device not in new_replicas])
    survivors = len(
        [device for device in new_replicas if alive is None or alive.get(device, True)]
    )
    candidates = tuple(
        [
            (device, () if resident is None else resident.get(device, ()))
            for device in new_replicas
            if device not in old_replicas
        ]
    )
    if not candidates:
        return dropped, survivors, candidates, ""
    live = [device for device in old_replicas if alive is None or alive.get(device, True)]
    if live:
        source = live[0]
    else:
        # No live replica left (e.g. the key sat on exactly the leaver plus
        # an earlier fail-stopped device): read from the leaver, which still
        # physically holds the data; a *failed* device must never perform
        # I/O again.
        source = device_id if device_id in old_replicas else old_replicas[0]
    return dropped, survivors, candidates, source
