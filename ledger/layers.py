"""Per-layer host time from a cProfile run, bucketed by ``src/repro`` package.

A layer is a package of ``src/repro``.  A function's self time (``tottime``)
goes to the layer its file belongs to.  Builtins and the standard library
have no layer of their own — ``dict.get``, ``heapq.heappush``, ``sorted`` do
the work *of* whichever repro function called them — so their self time is
charged to the calling repro frame, following the profile's caller edges up
through any intermediate stdlib frames.  Without that step 15-40 % of a run
lands in ``other``; with it less than 1 % does.

cProfile inflates call-heavy code more than loop-heavy code, so shares are a
map of where to look, not a prediction of the saving; ``trace.overhead_ratio``
says how much slower the profiled repetition ran.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Optional, Set, Tuple

import repro

LAYERS = (
    "sim",
    "csd",
    "fleet",
    "core",
    "engine",
    "vanilla",
    "service",
    "cluster",
    "scenarios",
    "obs",
    "workloads",
    "other",
)

#: Finer buckets where one package dominates a workload: name -> path prefix
#: relative to ``src/repro``.
SUB_BUCKETS = {
    "core.njoin": "core/njoin.py",
    "core.subplan": "core/subplan.py",
    "core.cache": "core/cache.py",
    "core.mjoin": "core/mjoin.py",
    "csd.device": "csd/device.py",
    "csd.scheduler": "csd/scheduler.py",
    "fleet.router": "fleet/router.py",
    "fleet.placement": "fleet/placement.py",
    "fleet.migration": "fleet/migration.py",
    "engine.operators": "engine/operators/",
    "engine.predicate": "engine/predicate.py",
    "engine.relation": "engine/relation.py",
}

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

Function = Tuple[str, int, str]

#: Path key for time that no repro frame accounts for.
_UNOWNED = ""


def _repro_path(function: Function) -> Optional[str]:
    """Path of the function's file relative to ``src/repro`` (``None`` outside)."""
    filename = function[0]
    if filename.startswith(_REPRO_ROOT):
        return filename[len(_REPRO_ROOT):].replace(os.sep, "/")
    return None


def self_seconds_by_path(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self time per repro-relative file path; ``""`` holds the unowned rest."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    owners_memo: Dict[Function, Dict[str, float]] = {}
    resolving: Set[Function] = set()

    def owners(function: Function) -> Dict[str, float]:
        """Which repro files a non-repro function's time belongs to (fractions)."""
        path = _repro_path(function)
        if path is not None:
            return {path: 1.0}
        known = owners_memo.get(function)
        if known is not None:
            return known
        callers = stats[function][4] if function in stats else {}
        if not callers or function in resolving:
            return {_UNOWNED: 1.0}
        resolving.add(function)
        # Split by the cumulative time each caller spent in this function;
        # call counts break the tie when the clock resolution read zero.
        weights = {caller: edge[3] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for path_key, fraction in owners(caller).items():
                shares[path_key] = shares.get(path_key, 0.0) + fraction * weight / total
        resolving.discard(function)
        owners_memo[function] = shares
        return shares

    seconds: Dict[str, float] = {}
    for function, (_cc, _nc, self_time, _ct, callers) in stats.items():
        path = _repro_path(function)
        if path is not None:
            seconds[path] = seconds.get(path, 0.0) + self_time
            continue
        charged = 0.0
        for caller, edge in callers.items():
            edge_self = edge[2]
            charged += edge_self
            for path_key, fraction in owners(caller).items():
                seconds[path_key] = seconds.get(path_key, 0.0) + edge_self * fraction
        seconds[_UNOWNED] = seconds.get(_UNOWNED, 0.0) + (self_time - charged)
    return seconds


def layer_metrics(profiler: cProfile.Profile) -> Dict[str, float]:
    """``<layer>.self_s`` / ``<layer>.share`` for every layer plus sub-buckets."""
    by_path = self_seconds_by_path(profiler)
    total = sum(by_path.values())
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for path, seconds in by_path.items():
        package = path.split("/", 1)[0] if "/" in path else ""
        by_layer[package if package in by_layer else "other"] += seconds
    metrics: Dict[str, float] = {}
    for layer, seconds in by_layer.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = seconds / total
    for name, prefix in SUB_BUCKETS.items():
        metrics[f"{name}.self_s"] = sum(
            seconds for path, seconds in by_path.items() if path.startswith(prefix)
        )
    return metrics
