"""Deterministic budgets for a fleet epoch change and the migration I/O it charges.

``FleetController._rebalance`` runs at one simulated instant and does pure
host work: diff the ring, plan the migration, extend the destination
layouts, build and hand over the migration jobs, count replication health.
Python frames entered inside it (``sys.setprofile``) per moved key repeat
exactly on one interpreter, so they gate in tier-1 where the ledger's
``fleet-churn`` wall time cannot — the tripwire for per-key work (a frame
per candidate destination, per record, per job hand-off) creeping back into
a path that should cost per replica-set shape or per device.  The jobs the
epochs hand the devices are then booked one at a time, at their end, in
``ColdStorageDevice._finish_migration``: its frames per job are the second
count.

The scenario is a small ``fleet-churn``: two Skipper tenants running Q6 over
a 150-segment single-row ``lineitem`` on a 4-device R = 2 fleet that sees a
join, a graceful leave, a fail-stop loss with read-repair and an R = 3
upgrade — one epoch of each kind the controller plans.
"""

from __future__ import annotations

from typing import Tuple

from frame_count import count_frames

from repro.csd.device import ColdStorageDevice
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
#: job.  That one measured 5.10 — two ``MigrationJob`` constructors, one
#: key split and ~0.8 ``add_object`` per moved key, the rest per shape or
#: per device.  With jobs built by ``tuple.__new__`` from fields validated
#: once per device, one bulk layout append per destination and no
#: per-destination sort it reads 1.37 (870 frames; 0.92 on CPython
#: 3.12–3.13), all of it per shape or per device; one more frame per moved
#: key trips the ceiling.  When it trips: pass ``on_call`` to
#: ``count_frames`` to tally ``frame.f_code.co_name`` on both commits and
#: diff them.
FRAMES_PER_MOVED_KEY_CEILING = 2.0
#: Frames entered inside ``ColdStorageDevice._finish_migration`` per
#: migration job the scenario's devices perform (1 207): 4.11 before the
#: job carried its label and the device stopped splitting its key and
#: calling the layout per job, 2.06 now (CPython 3.9–3.13) — the call
#: itself and the plan's ``notify``, plus a ``has_pending`` when nothing
#: interfered yet; one more frame per job trips the ceiling.
FRAMES_PER_MIGRATION_JOB_CEILING = 2.5


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
    _result, frames = count_frames(service.run, within=FleetController._rebalance.__code__)
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


def frames_per_migration_job() -> Tuple[float, int]:
    """(frames entered inside ``_finish_migration`` / jobs performed, jobs)."""
    service = _service()
    _result, frames = count_frames(
        service.run, within=ColdStorageDevice._finish_migration.__code__
    )
    jobs = sum(device.stats.migration_jobs for device in service.devices)
    return frames / jobs, jobs


def test_frames_per_migration_job_stay_under_the_ceiling():
    frames, jobs = frames_per_migration_job()
    assert jobs == 1207
    assert frames <= FRAMES_PER_MIGRATION_JOB_CEILING, (
        f"{frames:.2f} Python frames per migration job inside _finish_migration, "
        f"ceiling {FRAMES_PER_MIGRATION_JOB_CEILING}: the device went back to per-job calls"
    )
    assert frames_per_migration_job() == (frames, jobs)  # the count repeats exactly
