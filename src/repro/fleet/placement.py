"""Object placement across a fleet of cold storage devices.

The placement decides, for every object key, which R devices of the fleet
hold a replica.  The first device of each replica tuple is the *primary*;
the router prefers it unless the replica-choice policy or a device failure
says otherwise.  There is one policy, :class:`ConsistentHashPlacement`:
membership changes, weighting and the rebalancer all need a ring whose
diffs are minimal.

Placement is pure and deterministic: the same keys and device ids always
produce the same mapping, on every platform and Python version, which is
what lets fleet scenarios commit byte-identical golden metrics.  Hashes are
therefore derived from :mod:`hashlib`, never from Python's randomised
``hash()``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, PlacementError

#: Vnodes per device on the consistent-hash ring.  More vnodes smooth the
#: per-device share of the key space at the cost of a larger ring.
DEFAULT_VIRTUAL_NODES = 64


def normalize_weights(weights: Mapping[str, float]) -> Dict[str, float]:
    """Mean-normalise per-device capacity weights to average exactly 1.0.

    A normalised weight of 1.0 means "vanilla device": it gets the default
    vnode count.  Degenerate inputs (empty mapping, zero/negative/non-finite
    weights) raise :class:`~repro.exceptions.ConfigurationError` rather than
    silently collapsing to uniform or NaN shares.  All-equal inputs map to
    exactly 1.0 each — not merely approximately — so an equally-weighted
    ring is byte-identical to an unweighted one.
    """
    if not weights:
        raise ConfigurationError("capacity weights must be a non-empty mapping")
    for device_id, weight in weights.items():
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ConfigurationError(
                f"capacity weight for {device_id!r} must be a number, got {weight!r}"
            )
        if not math.isfinite(weight) or weight <= 0:
            raise ConfigurationError(
                f"capacity weight for {device_id!r} must be finite and "
                f"positive, got {weight!r}"
            )
    values = list(weights.values())
    if all(value == values[0] for value in values):
        return {device_id: 1.0 for device_id in weights}
    mean = math.fsum(values) / len(values)
    return {device_id: weight / mean for device_id, weight in weights.items()}


def stable_hash(text: str) -> int:
    """Deterministic 64-bit hash of ``text`` (platform independent).

    sha256 rather than md5: identical everywhere Python runs, including
    FIPS-mode builds where md5 raises at call time.
    """
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashPlacement:
    """Consistent hashing with (optionally weighted) virtual nodes and R-way
    replication.

    Each device contributes ``virtual_nodes`` points on a 64-bit ring — or,
    once :meth:`set_weights` installs capacity weights, a vnode count
    proportional to its weight — and a key is owned by the first R *distinct*
    devices found walking clockwise from the key's hash.  Adding one device
    to an N-device ring relocates only ~K/(N+1) of K keys; reweighting a
    device shifts only the arcs its gained/lost vnodes cover.
    """

    name = "consistent-hash"

    def __init__(self, replication: int = 1, virtual_nodes: int = DEFAULT_VIRTUAL_NODES) -> None:
        if replication < 1:
            raise PlacementError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        if virtual_nodes < 1:
            raise PlacementError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        #: Mean-normalised capacity weights; empty = uniform (every device
        #: contributes exactly ``virtual_nodes`` points).
        self._weights: Dict[str, float] = {}
        self._ring_cache: Dict[
            Tuple[Tuple[str, ...], Tuple[int, ...]], Tuple[List[int], List[str]]
        ] = {}
        #: (roster, vnode counts, R) -> replica tuple per ring arc; see
        #: :meth:`_segments`.
        self._segment_cache: Dict[
            Tuple[Tuple[str, ...], Tuple[int, ...], int],
            Tuple[List[int], List[Tuple[str, ...]]],
        ] = {}

    def set_weights(self, weights: Optional[Mapping[str, float]]) -> None:
        """Install capacity weights driving per-device vnode counts.

        ``None`` (or an empty mapping) resets the ring to uniform.  Weights
        are mean-normalised (see :func:`normalize_weights`); devices absent
        from the mapping default to weight 1.0.  Rings for every distinct
        (roster, counts) pair stay cached, so flipping between weight sets
        (old vs new epoch) costs nothing after the first build.
        """
        if not weights:
            self._weights = {}
            return
        self._weights = normalize_weights(weights)

    @property
    def weights(self) -> Dict[str, float]:
        """The installed mean-normalised weights (empty = uniform)."""
        return dict(self._weights)

    def vnode_counts(self, device_ids: Sequence[str]) -> Tuple[int, ...]:
        """Per-device ring point counts under the installed weights.

        A device of normalised weight *w* contributes
        ``max(1, round(virtual_nodes * w))`` points, so weight 1.0 yields
        exactly ``virtual_nodes`` — an all-equal-weights ring is
        byte-identical to the unweighted one.
        """
        if not self._weights:
            return (self.virtual_nodes,) * len(device_ids)
        return tuple(
            max(1, round(self.virtual_nodes * self._weights.get(device_id, 1.0)))
            for device_id in device_ids
        )

    def _validate(self, object_keys: Sequence[str], device_ids: Sequence[str]) -> None:
        if not object_keys:
            raise PlacementError("placement requires at least one object key")
        if not device_ids:
            raise PlacementError("placement requires at least one device")
        if len(set(device_ids)) != len(device_ids):
            raise PlacementError("device ids must be unique")
        if self.replication > len(device_ids):
            raise PlacementError(
                f"replication factor {self.replication} exceeds fleet size "
                f"{len(device_ids)}"
            )

    def bulk_key_hashes(self, object_keys: Sequence[str]) -> List[int]:
        """:func:`stable_hash` of many keys with the per-call overhead
        (function call, attribute lookups) hoisted out of the loop.  Nothing
        is memoised: a caller that needs the hashes again keeps the list."""
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        return [from_bytes(sha256(key.encode()).digest()[:8], "big") for key in object_keys]

    def _ring(
        self, device_ids: Sequence[str], vnode_counts: Optional[Sequence[int]] = None
    ) -> Tuple[List[int], List[str]]:
        counts = (
            tuple(vnode_counts) if vnode_counts is not None else self.vnode_counts(device_ids)
        )
        if len(counts) != len(device_ids):
            raise PlacementError(
                f"vnode_counts has {len(counts)} entries for "
                f"{len(device_ids)} devices"
            )
        cache_key = (tuple(device_ids), counts)
        cached = self._ring_cache.get(cache_key)
        if cached is not None:
            return cached
        labels: List[str] = []
        devices: List[str] = []
        for device_id, count in zip(device_ids, counts):
            if count < 1:
                raise PlacementError(
                    f"device {device_id!r} needs at least one vnode, got {count}"
                )
            labels += [f"{device_id}#{vnode}" for vnode in range(count)]
            devices.extend([device_id] * count)
        points = list(zip(self.bulk_key_hashes(labels), devices))
        # Ties between devices at the same ring point are broken by device id
        # so the ring is independent of the listing order of the fleet.
        points.sort()
        hashes = [point for point, _device in points]
        owners = [device for _point, device in points]
        self._ring_cache[cache_key] = (hashes, owners)
        return hashes, owners

    def _segments(
        self,
        device_ids: Sequence[str],
        replication: int,
        vnode_counts: Optional[Sequence[int]] = None,
    ) -> Tuple[List[int], List[Tuple[str, ...]]]:
        """Ring hashes plus the replica tuple owning each ring arc.

        A key hashing into the arc that ends at ring point ``i`` (i.e. with
        ``bisect_right(hashes, key_hash) % V == i``) is owned by
        ``replicas_by_arc[i]`` — the first ``replication`` distinct devices
        on the clockwise walk from ``i``.  Precomputing the walk once per
        (roster, R) turns per-key placement into a bisect plus a list
        lookup, and lets epoch diffs compare arcs instead of keys.
        """
        counts = (
            tuple(vnode_counts) if vnode_counts is not None else self.vnode_counts(device_ids)
        )
        cache_key = (tuple(device_ids), counts, replication)
        cached = self._segment_cache.get(cache_key)
        if cached is not None:
            return cached
        hashes, owners = self._ring(device_ids, counts)
        ring_size = len(hashes)
        replicas_by_arc: List[Tuple[str, ...]] = []
        for position in range(ring_size):
            replicas: List[str] = []
            for step in range(ring_size):
                owner = owners[(position + step) % ring_size]
                if owner not in replicas:
                    replicas.append(owner)
                    if len(replicas) == replication:
                        break
            replicas_by_arc.append(tuple(replicas))
        result = (hashes, replicas_by_arc)
        self._segment_cache[cache_key] = result
        return result

    def place(
        self,
        object_keys: Sequence[str],
        device_ids: Sequence[str],
        *,
        sorted_key_hashes: Optional[Sequence[Tuple[int, str]]] = None,
    ) -> Dict[str, Tuple[str, ...]]:
        """Bulk arc-sweep placement.

        Instead of one ring bisect per key (O(K·log V)), sort the key hashes
        once and walk keys and ring arcs together with two pointers, assigning
        whole runs of keys per arc — O(K log K + V), and O(K + V) when the
        caller supplies a pre-sorted ``(hash, key)`` list (the fleet router
        builds one here; the controller's epoch diffs walk the same list).
        """
        self._validate(object_keys, device_ids)
        hashes, replicas_by_arc = self._segments(device_ids, self.replication)
        ring_size = len(hashes)
        if sorted_key_hashes is None:
            sorted_key_hashes = sorted(zip(self.bulk_key_hashes(object_keys), object_keys))
        # Two-pointer sweep: key hashes ascend, so the owning arc index
        # (== bisect_right(hashes, key_hash)) only ever moves forward.
        owners: Dict[str, Tuple[str, ...]] = {}
        position = 0
        for key_hash_value, key in sorted_key_hashes:
            while position < ring_size and hashes[position] <= key_hash_value:
                position += 1
            owners[key] = replicas_by_arc[position % ring_size]
        # Re-emit in the caller's key order: downstream consumers (layout
        # build, migration plans, golden metrics) iterate the placement dict
        # and rely on its insertion order matching the key population order.
        return {key: owners[key] for key in object_keys}

    def diff_keys(
        self,
        sorted_key_hashes: Sequence[Tuple[int, str]],
        old_device_ids: Sequence[str],
        new_device_ids: Sequence[str],
        old_replication: int,
        new_replication: int,
        old_vnode_counts: Optional[Sequence[int]] = None,
        new_vnode_counts: Optional[Sequence[int]] = None,
        key_hashes: Optional[Sequence[int]] = None,
    ) -> Dict[str, Tuple[str, ...]]:
        """Keys whose replica tuple differs between two (roster, counts, R)
        epochs.

        ``sorted_key_hashes`` is the full key population as ``(hash, key)``
        pairs sorted ascending (computed once per run — key hashes never
        change).  Both rings are walked with two pointers over the merged
        arc boundaries; runs of keys falling into arcs with identical old
        and new replica tuples are skipped in one bisect jump, so the cost
        is O(changed ranges + ring size) instead of a full re-placement of
        every key — weighted or not.  ``old_vnode_counts`` /
        ``new_vnode_counts`` identify each epoch's (possibly weighted) ring;
        ``None`` means the uniform ring (``virtual_nodes`` points per
        device), *not* the currently installed weights — callers diffing a
        reweight pass both explicitly.  ``key_hashes`` is the hash column
        of ``sorted_key_hashes``; a caller diffing the same population epoch
        after epoch keeps it and passes it in, otherwise it is derived here.
        Returns ``{key: new_replicas}`` for exactly the keys a full
        old-vs-new placement diff would report as changed.
        """
        if not new_device_ids:
            raise PlacementError("placement requires at least one device")
        if len(set(new_device_ids)) != len(new_device_ids):
            raise PlacementError("device ids must be unique")
        if new_replication > len(new_device_ids):
            raise PlacementError(
                f"replication factor {new_replication} exceeds fleet size "
                f"{len(new_device_ids)}"
            )
        if old_vnode_counts is None:
            old_vnode_counts = (self.virtual_nodes,) * len(old_device_ids)
        if new_vnode_counts is None:
            new_vnode_counts = (self.virtual_nodes,) * len(new_device_ids)
        old_hashes, old_arcs = self._segments(
            old_device_ids, old_replication, old_vnode_counts
        )
        new_hashes, new_arcs = self._segments(
            new_device_ids, new_replication, new_vnode_counts
        )
        old_size = len(old_hashes)
        new_size = len(new_hashes)
        if key_hashes is None:
            key_hashes = [pair[0] for pair in sorted_key_hashes]
        total = len(sorted_key_hashes)
        changed: Dict[str, Tuple[str, ...]] = {}
        bisect_left = bisect.bisect_left
        index = 0
        old_pos = 0
        new_pos = 0
        while index < total:
            key_hash = key_hashes[index]
            while old_pos < old_size and old_hashes[old_pos] <= key_hash:
                old_pos += 1
            while new_pos < new_size and new_hashes[new_pos] <= key_hash:
                new_pos += 1
            old_replicas = old_arcs[old_pos % old_size]
            new_replicas = new_arcs[new_pos % new_size]
            # Keys up to the next arc boundary (of either ring) share both
            # replica tuples; a key hashing exactly onto a boundary belongs
            # to the *next* arc (bisect_right semantics), so the run ends
            # strictly before the boundary.
            boundaries = []
            if old_pos < old_size:
                boundaries.append(old_hashes[old_pos])
            if new_pos < new_size:
                boundaries.append(new_hashes[new_pos])
            if boundaries:
                limit = bisect_left(key_hashes, min(boundaries), index)
            else:
                limit = total
            if old_replicas != new_replicas:
                for position in range(index, limit):
                    changed[sorted_key_hashes[position][1]] = new_replicas
            index = limit
        return changed
