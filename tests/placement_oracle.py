"""Brute-force consistent-hash placement: the tests' reference for ``place()``.

Shares nothing with ``fleet/placement.py`` but :func:`stable_hash`, the
``"<device>#<vnode>"`` ring-point naming and ``vnode_counts`` — no ring
cache, no precomputed arcs, no sweep — so an arc-walk bug there cannot pass
here too.
"""

from __future__ import annotations

import bisect
from typing import Dict, Sequence, Tuple

from repro.fleet.placement import ConsistentHashPlacement, stable_hash


def brute_force_place(
    policy: ConsistentHashPlacement, object_keys: Sequence[str], device_ids: Sequence[str]
) -> Dict[str, Tuple[str, ...]]:
    """Each key's first R distinct devices clockwise of its hash on the ring."""
    points = sorted(
        (stable_hash(f"{device}#{vnode}"), device)
        for device, count in zip(device_ids, policy.vnode_counts(device_ids))
        for vnode in range(count)
    )
    hashes = [point for point, _device in points]
    placed = {}
    for key in object_keys:
        start = bisect.bisect_right(hashes, stable_hash(key))
        replicas = []
        for step in range(len(points)):
            device = points[(start + step) % len(points)][1]
            if device not in replicas:
                replicas.append(device)
                if len(replicas) == policy.replication:
                    break
        placed[key] = tuple(replicas)
    return placed
