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

import pytest
from frame_count import count_frames

from repro.csd import AllInOneLayout, ColdStorageDevice, DeviceConfig, ObjectStore
from repro.csd.device import MigrationTokenBucket
from repro.csd.request import MigrationJob, migration_fields
from repro.csd.scheduler import RankBasedScheduler
from repro.fleet.controller import FleetController
from repro.fleet.spec import DeviceFailure, DeviceJoin, DeviceLeave, FleetSpec, SetReplication
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.obs import MetricsRegistry
from repro.service import StorageService
from repro.sim import Environment
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
#: per-destination sort it read 1.37 (870 frames; 0.92 on CPython
#: 3.12–3.13), all of it per shape or per device.  With replication health
#: read from a census of replica tuples, each shape, the serving roster and
#: the health count resolved in C and each layout's tenant map built with
#: it, 0.62 (396 frames; 0.60 on CPython 3.9–3.10, 0.56 on 3.12–3.13): the
#: ceiling is the 3.11 reading plus half a frame, so one more frame per
#: moved key trips it.  When it trips: pass
#: ``on_call`` to ``count_frames`` to tally ``frame.f_code.co_name`` on
#: both commits and diff them.
FRAMES_PER_MOVED_KEY_CEILING = 1.2


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


#: Migration jobs the bare device books per measurement.
BARE_JOBS = 200
#: Frames entered while a bare device (one ``RankBasedScheduler``, no GET)
#: books :data:`BARE_JOBS` write jobs of 0.1 s each, per job: the kernel's
#: dispatch, the job's timeout and the plan's ``notify`` — throttled at two
#: tokens a second, also the bucket's wait (its refill timeout, an inbox
#: getter and the race between them).  7.06 and 27.96 while the device
#: called ``MigrationTokenBucket.try_consume``, ``IOScheduler.has_pending``
#: and ``_finish_migration`` per job; 4.05 and 21.96 with the take, the
#: check and the booking inline (CPython 3.9–3.13); 3.04 and 20.95 after
#: the kernel's wake-up rewrite; 3.04 and 19.96 with the wait computed
#: inline, not by ``seconds_until_token``.  The throttled ceiling went one
#: frame down with its reading.
FRAMES_PER_BOOKED_JOB_CEILINGS = {"unthrottled": 4.6, "throttled": 21.5}


def frames_per_booked_job(throttled: bool) -> float:
    """Frames the bare device's run enters per migration job it books."""
    env = Environment()
    store = ObjectStore()
    keys = store.put_segments("a", [f"t.{index}" for index in range(BARE_JOBS)], [None] * BARE_JOBS)
    device = ColdStorageDevice(
        env,
        store,
        AllInOneLayout().build({"a": keys}),
        RankBasedScheduler(),
        DeviceConfig(),
        MetricsRegistry(),
        migration_throttle=MigrationTokenBucket(2.0) if throttled else None,
    )
    booked = []

    def notify(job, start, end, interfered):
        booked.append(end - start)

    fields = migration_fields("write", 0.1, 0, "rebalance", notify)
    device.submit_migrations([MigrationJob(key, *fields) for key in keys])
    _result, frames = count_frames(lambda: env.run(env.timeout(10.0 * BARE_JOBS)))
    assert len(booked) == device.stats.migration_jobs == BARE_JOBS
    return frames / BARE_JOBS


@pytest.mark.parametrize("throttle", sorted(FRAMES_PER_BOOKED_JOB_CEILINGS))
def test_frames_per_booked_migration_job_stay_under_the_ceiling(throttle):
    frames = frames_per_booked_job(throttle == "throttled")
    ceiling = FRAMES_PER_BOOKED_JOB_CEILINGS[throttle]
    assert frames <= ceiling, (
        f"{frames:.2f} Python frames per booked migration job ({throttle}), ceiling "
        f"{ceiling}: the device went back to per-job calls"
    )
    assert frames_per_booked_job(throttle == "throttled") == frames  # repeats exactly
