"""Deterministic budget for a fleet epoch change.

``FleetController._rebalance`` runs at one simulated instant and does pure
host work: diff the ring, plan the migration, extend the destination
layouts, build and hand over the migration jobs, count replication health.
Python frames entered inside it (``sys.setprofile``) per moved key repeat
exactly on one interpreter, so they gate in tier-1 where the ledger's
``fleet-churn`` wall time cannot — the tripwire for per-key work (a frame
per candidate destination, per record, per job hand-off) creeping back into
a path that should cost per replica-set shape or per device.

The scenario is a small ``fleet-churn``: two Skipper tenants running Q6 over
a 150-segment single-row ``lineitem`` on a 4-device R = 2 fleet that sees a
join, a graceful leave, a fail-stop loss with read-repair and an R = 3
upgrade — one epoch of each kind the controller plans.
"""

from __future__ import annotations

import gc
import sys
from typing import Tuple

from repro.fleet.controller import FleetController
from repro.fleet.spec import DeviceFailure, DeviceJoin, DeviceLeave, FleetSpec, SetReplication
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService
from repro.workloads import tpch
from repro.workloads.datagen import ScaleProfile, TableProfile

SEGMENTS = 150

#: Frames entered inside ``_rebalance`` per moved key.  The commit before
#: shape-memoised plans measured 19.29 on this scenario (636 keys moved,
#: CPython 3.11): a residency call per candidate destination, a dataclass
#: ``__init__`` per move and per trim, a ``submit_migration`` + ``put`` per
#: job.  This one measures 5.10 — two ``MigrationJob`` constructors, one
#: key split and ~0.8 ``add_object`` per moved key, the rest per shape or
#: per device; one more frame per moved key trips the ceiling.  When it
#: trips: count ``frame.f_code.co_name`` inside ``_rebalance`` on both
#: commits and diff them.
FRAMES_PER_MOVED_KEY_CEILING = 6.0


def _service() -> StorageService:
    tables = dict(tpch.SCALES["mkeys"].tables)
    tables["orders"] = TableProfile(1, 512)
    tables["lineitem"] = TableProfile(SEGMENTS, 1)
    profile = ScaleProfile("mkeys", tables)
    spec = ScenarioSpec(
        name="epoch-budget",
        description="Q6 tenants on a 4-device R=2 fleet through every epoch kind.",
        tenants=uniform_tenants(2, "tpch:q6", cache_capacity=64),
        scale=profile.name,
        fleet=FleetSpec(
            devices=4,
            replication=2,
            events=(
                DeviceJoin(device=4, at_seconds=100.0),
                DeviceLeave(device=0, at_seconds=400.0),
                SetReplication(replication=3, at_seconds=1000.0),
            ),
            failures=(DeviceFailure(device=1, at_seconds=700.0),),
        ),
        seed=7,
    )
    return StorageService(spec, catalog=tpch.build_catalog(profile, 7))


def frames_per_moved_key() -> Tuple[float, int, Tuple[str, ...]]:
    """(frames entered inside ``_rebalance`` / keys moved, keys moved, plan kinds)."""
    service = _service()
    rebalance = FleetController._rebalance.__code__
    frames = 0
    depth = 0

    def count(frame, event: str, _arg: object) -> None:
        nonlocal frames, depth
        if event == "call":
            if depth or frame.f_code is rebalance:
                depth += 1
                frames += 1
        elif event == "return" and depth:
            depth -= 1

    # The collector is held off while counting: ``gc.callbacks`` hooks are
    # Python frames too, and when collections fall depends on what ran first.
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        service.run()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    plans = service.controller.migration_plans
    moved = sum(plan.keys_moved for plan in plans)
    return frames / moved, moved, tuple(plan.kind for plan in plans)


def test_frames_per_moved_key_stay_under_the_ceiling():
    frames, moved, kinds = frames_per_moved_key()
    assert kinds == ("join", "leave", "repair", "set-replication")
    assert moved == 636
    assert frames <= FRAMES_PER_MOVED_KEY_CEILING, (
        f"{frames:.2f} Python frames per moved key inside _rebalance, ceiling "
        f"{FRAMES_PER_MOVED_KEY_CEILING}: an epoch change went back to per-key work"
    )


def test_frame_count_repeats_exactly():
    assert frames_per_moved_key() == frames_per_moved_key()
