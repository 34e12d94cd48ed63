"""Deterministic budgets for the per-object GET path.

Two counts that repeat exactly on one interpreter, so they can gate in
tier-1 where a wall-clock number cannot: Python frames entered per delivered
object (``sys.setprofile``) and GC-tracked objects left in flight per GET
(``len(gc.get_objects())`` around one ``request_objects`` call).  They are
the tripwire for helper layers creeping back onto the path between
``QueryRun.request`` and the device inbox — a microsecond per object that the
ledger only shows after ten alternating pairs shows here as a count.

The scenario is a small ``keys-fanout``: two Skipper tenants running Q6 over
a 150-segment single-row ``lineitem`` (300 delivered objects) on a 4-device
R = 2 fleet of slack-FCFS devices.

The pull path has its own pair at the bottom: a small ``vanilla-pull`` —
three pull-based tenants running Q5 on one rank-based CSD, one blocking GET
at a time, so the scheduler decides and the device switches once per object.
"""

from __future__ import annotations

import gc
import sys
from typing import Dict, Tuple

import pytest

from repro.core.client_proxy import ClientProxy
from repro.fleet.spec import FleetSpec
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService
from repro.workloads import tpch
from repro.workloads.datagen import ScaleProfile, TableProfile

TENANTS = 2
SEGMENTS = 150

#: Frames per delivered object.  The commit before vector issuance measured
#: 114.3 on this scenario (CPython 3.9–3.11; 111.6 on 3.12–3.13, which inline
#: comprehensions), that one 77.7 (75.0); with the counters plain attributes
#: bumped in place (no ``record_served`` / ``Histogram.observe`` frame) it is
#: 73.9 on 3.11, and with the two tenants sharing one Q6 — the second one's
#: deliveries answered from each segment's kept selection — 60.7.  Three
#: more frames per object trip the ceiling.
#: When it trips: ``sys.setprofile`` the run and diff the per-function counts
#: against the parent commit — the new frames are a layer someone added.
FRAMES_PER_OBJECT_CEILING = 64.0
#: GC-tracked objects one in-flight GET may keep alive: the request, its
#: completion event and that event's callback list (the commit before had 7:
#: plus a closure, its two cells and the cells' tuple).
TRACKED_PER_GET_CEILING = 3
#: Tracked objects one ``request_objects`` *call* may leave behind whatever
#: its size (bound methods held by the callback lists, a resized dict).
TRACKED_PER_CALL_ALLOWANCE = 8


def _service() -> StorageService:
    tables = dict(tpch.SCALES["mkeys"].tables)
    tables["orders"] = TableProfile(1, 512)
    tables["lineitem"] = TableProfile(SEGMENTS, 1)
    profile = ScaleProfile("mkeys", tables)
    spec = ScenarioSpec(
        name="request-path-budget",
        description="Q6 tenants over a single-row-segment lineitem on a small R=2 fleet.",
        tenants=uniform_tenants(TENANTS, "tpch:q6", cache_capacity=64),
        scale=profile.name,
        scheduler="slack-fcfs",
        scheduler_param=4.0,
        fleet=FleetSpec(devices=4, replication=2),
        seed=7,
    )
    return StorageService(spec, catalog=tpch.build_catalog(profile, 7))


def _run_profiled(service: StorageService, hook):
    """``service.run()`` with ``hook`` as the profile function.

    The collector is held off while counting: ``gc.callbacks`` hooks (the
    test runner installs one) are Python frames too, two per collection,
    and when collections fall depends on what ran before this test.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        return service.run()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()


def frames_per_delivered_object() -> Tuple[float, int]:
    """(Python frames entered during ``service.run()`` / objects delivered, objects)."""
    service = _service()
    frames = 0

    def count(_frame: object, event: str, _arg: object) -> None:
        nonlocal frames
        if event == "call":
            frames += 1

    result = _run_profiled(service, count)
    return frames / result.device_objects_served, result.device_objects_served


def tracked_objects_left_by_one_call(requests: int) -> int:
    """GC-tracked objects one ``request_objects`` call of ``requests`` GETs adds."""
    service = _service()
    proxy = ClientProxy(service.env, service.backend, "tenant0")
    segment_ids = [f"lineitem.{index}" for index in range(requests)]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        proxy.request_objects(segment_ids, "tenant0:budget:0")
        return len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()


def test_frames_per_delivered_object_stay_under_the_ceiling():
    frames, delivered = frames_per_delivered_object()
    assert delivered == TENANTS * SEGMENTS
    assert frames <= FRAMES_PER_OBJECT_CEILING, (
        f"{frames:.1f} Python frames per delivered object, ceiling "
        f"{FRAMES_PER_OBJECT_CEILING}: something added a layer to the GET path"
    )


def test_frame_count_repeats_exactly():
    assert frames_per_delivered_object() == frames_per_delivered_object()


def test_an_in_flight_get_keeps_three_tracked_objects():
    added = tracked_objects_left_by_one_call(SEGMENTS)
    assert added <= TRACKED_PER_GET_CEILING * SEGMENTS + TRACKED_PER_CALL_ALLOWANCE, (
        f"{added / SEGMENTS:.2f} GC-tracked objects per in-flight GET, "
        f"ceiling {TRACKED_PER_GET_CEILING}"
    )
    # The allowance is per call, not per request: half the batch, same slack.
    assert tracked_objects_left_by_one_call(SEGMENTS // 2) <= (
        TRACKED_PER_GET_CEILING * (SEGMENTS // 2) + TRACKED_PER_CALL_ALLOWANCE
    )


# --------------------------------------------------------------------------- #
# The pull path: one decision, one switch, one blocking GET per object
# --------------------------------------------------------------------------- #
PULL_TENANTS = 3

#: Frames per pulled object outside ``_process_locally`` (the join is the
#: engine's, not the path's).  The commit before the flat pull path measured
#: 144.2 at ``tiny`` (30 objects) and 124.7 at ``small`` (63), that one 112.2
#: and 92.7, plain-attribute counters 109.3 and 90.3 (CPython 3.11); ten more
#: frames per object trip the ceilings.  When one trips:
#: run ``frames_per_pulled_object`` on both commits with a per-``co_name``
#: ``Counter`` in the hook and diff them — on this path a new frame per object
#: is a helper between ``QueryRun.pull_each`` and the device loop, or a
#: scheduler decision that went back to building lists and keys.
PULL_FRAMES_CEILING = {"tiny": 119.0, "small": 103.0}
#: The two modules whose per-object generators this path lost.
PULL_PATH_MODULES = ("csd/device.py", "core/execution.py")


def frames_per_pulled_object(scale: str) -> Tuple[float, int, int, int]:
    """(frames per pulled object, generators started on the path, objects, queries).

    Frames are Python calls (generator resumes included) between
    ``service.run()`` entry and exit, except ``_process_locally`` and all it
    calls; generators are the distinct generator frames of
    :data:`PULL_PATH_MODULES` that were ever started.
    """
    spec = ScenarioSpec(
        name="pull-path-budget",
        description="Vanilla Q5 tenants, one group each, on one rank-based CSD.",
        tenants=uniform_tenants(PULL_TENANTS, "tpch:q5", mode="vanilla"),
        scale=scale,
        seed=7,
    )
    service = StorageService(spec)
    frames = 0
    inside_join = 0
    generators: Dict[object, None] = {}  # frames held so no id is ever reused

    def count(frame, event: str, _arg: object) -> None:
        nonlocal frames, inside_join
        if event == "call":
            code = frame.f_code
            if inside_join or code.co_name == "_process_locally":
                inside_join += 1
                return
            frames += 1
            if code.co_flags & 0x20 and code.co_filename.endswith(PULL_PATH_MODULES):
                generators[frame] = None
        elif event == "return" and inside_join:
            inside_join -= 1

    result = _run_profiled(service, count)
    queries = sum(len(results) for results in result.results_by_client.values())
    objects = result.device_objects_served
    return frames / objects, len(generators), objects, queries


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_frames_per_pulled_object_stay_under_the_ceiling(scale):
    frames, _generators, objects, queries = frames_per_pulled_object(scale)
    assert queries == PULL_TENANTS and objects > 4 * queries
    assert frames <= PULL_FRAMES_CEILING[scale], (
        f"{frames:.1f} Python frames per pulled object at {scale!r}, ceiling "
        f"{PULL_FRAMES_CEILING[scale]}: something added a layer to the pull path"
    )
    assert frames_per_pulled_object(scale)[0] == frames  # the count repeats exactly


def test_no_generator_is_created_per_pulled_object():
    """The device loop is one generator per device and a pull-based query is
    two (``pull_each`` for the whole access order, ``charge`` for the join),
    however many objects are pulled — at the parent every object cost a
    ``_switch_to``, a ``receive`` and two ``charge`` generators more."""
    for scale in ("tiny", "small"):
        _frames, generators, _objects, queries = frames_per_pulled_object(scale)
        assert generators == 1 + 2 * queries, f"{generators} path generators at {scale!r}"
