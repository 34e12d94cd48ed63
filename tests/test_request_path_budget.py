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
import inspect
import sys
from collections import Counter
from typing import Callable, Dict, Tuple

import pytest
from frame_count import count_frames

from repro.core.client_proxy import ClientProxy
from repro.core.execution import QueryRun
from repro.fleet.spec import FleetSpec
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService
from repro.sim import Environment, Process, Store
from repro.vanilla.executor import SharedPullJoin
from repro.workloads import tpch
from repro.workloads.datagen import ScaleProfile, TableProfile

TENANTS = 2
SEGMENTS = 150

#: Frames per delivered object.  The commit before vector issuance measured
#: 114.3 on this scenario (CPython 3.9–3.11; 111.6 on 3.12–3.13, which inline
#: comprehensions), that one 77.7 (75.0); with the counters plain attributes
#: bumped in place (no ``record_served`` / ``Histogram.observe`` frame) it is
#: 73.9 on 3.11, and with the two tenants sharing one Q6 — the second one's
#: deliveries answered from each segment's kept selection — 60.7; it read
#: 62.92 before the kernel dispatched inline, the layout's group lookup
#: became its mapping's ``get`` and the device loop drained its inbox
#: without a call, 57.55 (56.59 on 3.12–3.13) before a delivery crossed each
#: layer once — events enqueued without a kernel call, two generator levels
#: per tenant, a scan-only arrival answered inline, the store's lookups bound
#: once — 37.01 (36.34 on 3.12–3.13) before a delay and a store wait
#: stopped building an event, 30.46 before a served GET became its own
#: completion (no ``Event.__init__`` per request), and reads 29.46 now
#: (CPython 3.11).  Three more frames per object trip the ceiling.
#: When it trips: tally the run's frames per function through
#: ``count_frames``'s ``on_call`` and diff them against the parent commit —
#: the new frames are a layer someone added.
FRAMES_PER_OBJECT_CEILING = 32.5
#: Generator frames a delivery resumes in the tenant it is handed to: the
#: session's and the run's per-object loop (``QueryRun.consume`` for a
#: Skipper tenant, ``QueryRun.pull_each`` for a pull-based one).  It was 4
#: for Skipper while the session ran each query in a generator of its own
#: and the executor's cycle loop wrapped the run's arrival loop, and 3 for a
#: pull-based tenant while its executor's generator wrapped ``pull_each``.
GENERATORS_PER_DELIVERY_CEILING = 2
#: Where a walk up from the tenant's wait stops: the kernel's entries into a
#: process — ``Process._resume``, the handler of its wake-up and the callback
#: it registers on an event, and ``Environment.run`` itself.
KERNEL_ENTRIES = (Process._resume.__code__, Environment.run.__code__)
#: GC-tracked objects one in-flight GET may keep alive: the request, which is
#: its own completion (3 while it carried a completion event and that
#: event's callback list; 7 before that, with a closure, its two cells and
#: the cells' tuple).
TRACKED_PER_GET_CEILING = 1
#: Tracked objects one ``request_objects`` *call* may leave behind whatever
#: its size (the delivery handler's bound method, a resized dict).
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


def frames_per_delivered_object() -> Tuple[float, int]:
    """(Python frames entered during ``service.run()`` / objects delivered, objects)."""
    result, frames = count_frames(_service().run)
    return frames / result.device_objects_served, result.device_objects_served


def generators_resumed_per_delivery(
    service: StorageService, loop: Callable[..., object]
) -> Tuple[Counter, int]:
    """``(depths, objects delivered)``: per wait of ``loop`` on the proxy's
    arrivals store, the generator frames between the kernel's entry into the
    process (:data:`KERNEL_ENTRIES`) and that wait, counted by depth — the
    frames the delivery resumes when it comes."""
    depths: Counter = Counter()
    code = loop.__code__

    def note_depth(frame, event, arg) -> None:
        # A generator's yield is a ``return`` event carrying the yielded value.
        if event == "return" and frame.f_code is code and type(arg) is Store:
            generators = 0
            caller = frame
            while caller.f_code not in KERNEL_ENTRIES:
                generators += bool(caller.f_code.co_flags & inspect.CO_GENERATOR)
                caller = caller.f_back
            depths[generators] += 1

    sys.setprofile(note_depth)
    try:
        result = service.run()
    finally:
        sys.setprofile(None)
    return depths, result.device_objects_served


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


def test_a_delivery_resumes_two_generators_in_its_tenant():
    depths, _delivered = generators_resumed_per_delivery(_service(), QueryRun.consume)
    assert sum(depths.values()) == TENANTS * SEGMENTS
    assert max(depths) <= GENERATORS_PER_DELIVERY_CEILING, (
        f"deliveries resumed {dict(depths)} generator frames (depth: count), ceiling "
        f"{GENERATORS_PER_DELIVERY_CEILING}: a generator level came back between the "
        "session and the run's arrival loop"
    )


def test_an_in_flight_get_keeps_one_tracked_object():
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

#: Frames per pulled object outside ``SharedPullJoin.end`` (the join is the
#: engine's, not the path's).  The commit before the flat pull path measured
#: 144.2 at ``tiny`` (30 objects) and 124.7 at ``small`` (63), that one 112.2
#: and 92.7, plain-attribute counters 109.3 and 90.3 (CPython 3.11), the
#: commit before the kernel dispatched inline 87.7 and 78.1, that one 79.2
#: and 69.9, and with events enqueued without a kernel call and the session
#: one generator 66.3 and 57.3 (CPython 3.9–3.11; 65.1 and 56.7 on
#: 3.12–3.13); with no event per delay or store wait 57.2 and 48.2 (CPython
#: 3.11), with one call per wait 51.5 and 42.3, and with no event per GET
#: 50.5 and 41.3; ten more frames per object trip the ceilings.  When one trips:
#: run ``frames_per_pulled_object`` on both commits with a per-``co_name``
#: ``Counter`` in the hook and diff them — on this path a new frame per object
#: is a helper between ``QueryRun.pull_each`` and the device loop, or a
#: scheduler decision that went back to building lists and keys.
PULL_FRAMES_CEILING = {"tiny": 60.5, "small": 51.4}
#: The two modules whose per-object generators this path lost.
PULL_PATH_MODULES = ("csd/device.py", "core/execution.py")


def _pull_service(scale: str) -> StorageService:
    spec = ScenarioSpec(
        name="pull-path-budget",
        description="Vanilla Q5 tenants, one group each, on one rank-based CSD.",
        tenants=uniform_tenants(PULL_TENANTS, "tpch:q5", mode="vanilla"),
        scale=scale,
        seed=7,
    )
    return StorageService(spec)


def frames_per_pulled_object(scale: str) -> Tuple[float, int, int, int]:
    """(frames per pulled object, generators started on the path, objects, queries).

    Frames are Python calls (generator resumes included) between
    ``service.run()`` entry and exit, except ``SharedPullJoin.end`` and all
    it calls; generators are the distinct generator frames of
    :data:`PULL_PATH_MODULES` that were ever started.
    """
    generators: Dict[object, None] = {}  # frames held so no id is ever reused

    def note_generator(frame) -> None:
        code = frame.f_code
        if code.co_flags & 0x20 and code.co_filename.endswith(PULL_PATH_MODULES):
            generators[frame] = None

    result, frames = count_frames(
        _pull_service(scale).run, skip=SharedPullJoin.end.__code__, on_call=note_generator
    )
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


def test_a_pulled_delivery_resumes_two_generators_in_its_tenant():
    """The pull-based twin of the Skipper gate above: ``pull_each`` is the
    tenant's only generator under the session."""
    depths, delivered = generators_resumed_per_delivery(_pull_service("tiny"), QueryRun.pull_each)
    assert sum(depths.values()) == delivered > 4 * PULL_TENANTS
    assert max(depths) <= GENERATORS_PER_DELIVERY_CEILING, (
        f"pulled deliveries resumed {dict(depths)} generator frames (depth: count), "
        f"ceiling {GENERATORS_PER_DELIVERY_CEILING}: a generator level came back between "
        "the session and the run's pull loop"
    )
