"""Deterministic budgets for the MJoin arrival path.

Two counts that repeat exactly, so they can gate in tier-1 where a wall-clock
number cannot (compare ``tests/test_request_path_budget.py``): Python frames
entered per executed subplan, and ``probe_hash_table`` calls per batch against
the plan's positions.  They are the tripwire for per-subplan — or per-segment
— work creeping back between ``SubplanTracker.runnable_batch`` and
``mark_batch_executed``: a batch is a product and nothing on the path may
spell its combinations out, and a relation has one hash table however many of
its segments are cached.

The scenario is TPC-H Q5 at ``small`` (12 × 4 × 2 × 1 × 1 × 1 segments in plan
order, 96 subplans), the state manager fed directly in scan order with a
cache of one object per table plus two, so 48 of the 56 arrivals evict and
re-issue cycles run.  Every batch of that feed is all pending, so the probe
count is also taken over a shuffled feed, where 22 of the 58 batches have
holes.

When the frame count trips: ``sys.setprofile`` the feed and diff the
per-function counts against the parent commit (``frames_by_function`` below
prints them).  What the budget was cut from: one ``min`` key lambda per cached
object per eviction, a ``_probe`` and a ``hash_table`` frame per probe, three
``Counter`` passes per arrival, one probe per cached segment of every position,
an outcome dataclass and its default-factory stats per arrival.
When the probe count trips: ``NAryJoin.execute_batch`` probed a segment's own
table where the relation's would do, or went on after a level left no row.

A third count is per service, not per subplan: bulk selections against the
objects filtered.  Tenants of one ``Query`` share its predicates and a
segment keeps its last selection, so a multi-tenant Q6 run filters each
``lineitem`` object once, however many tenants — Skipper or pull-based —
read it.  When it trips: ``build_cluster_config`` resolves a query per
tenant again, or something on the arrival or scan path filters without
``select_rows``.
"""

from __future__ import annotations

import gc
import random
import sys
from collections import Counter
from typing import Callable, List, Optional, Tuple

import pytest

from repro.core import njoin
from repro.core.cache import ObjectCache
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import Batch
from repro.engine.relation import Segment
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService
from repro.workloads import tpch

#: Frames per executed subplan, comprehension frames left out (CPython 3.12
#: inlines them, PEP 709; 3.13 enters 12 fewer, all in ``abc``'s checks).  With
#: one hash table per cached segment this scenario measured 24.38 (2 340
#: frames / 96 subplans), with one per relation 23.69 (2 274), with the
#: arrival returning its ``OperatorStats`` rather than an outcome record
#: 22.02 (2 114), with each re-fetched object's selection kept on the
#: segment and no ``prepare_segment`` frame 21.38 (2 052); the ceiling is
#: that plus one, so one more frame per probe, or two per arrival, trips it.
FRAMES_PER_SUBPLAN_CEILING = 22.4
_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>")


def _feed(
    on_call: Callable[[str, str], None], shuffle_seed: Optional[int] = None
) -> MJoinStateManager:
    """Run the scenario, reporting every Python frame entered by the feed."""
    catalog = tpch.build_catalog("small", seed=42)
    query = tpch.q5()
    manager = MJoinStateManager(query, catalog, ObjectCache(len(query.tables) + 2))
    segments = {
        segment_id: catalog.resolve_segment_id(segment_id)
        for segment_id in manager.initial_requests()
    }

    def profile(frame, event, _arg):
        if event == "call":
            on_call(frame.f_code.co_filename, frame.f_code.co_name)

    # The collector is held off while counting: ``gc.callbacks`` hooks are
    # Python frames too, and when collections fall depends on what ran before.
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        requests = manager.initial_requests()
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(requests)
        while requests:
            for segment_id in requests:
                manager.on_arrival(segment_id, segments[segment_id])
            requests = manager.next_cycle_requests()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    assert not manager.tracker.has_pending()
    return manager


def frames_by_function() -> Tuple[Counter, MJoinStateManager]:
    """(frames entered per (file, function), the finished state manager)."""
    frames: Counter = Counter()

    def count(filename: str, name: str) -> None:
        if name not in _COMPREHENSIONS:
            frames[filename.rsplit("repro/", 1)[-1], name] += 1

    manager = _feed(count)
    return frames, manager


def test_frames_per_executed_subplan_stay_under_the_ceiling():
    frames, manager = frames_by_function()
    assert manager.tracker.num_executed == 96 and manager.cache.num_evictions == 48
    per_subplan = sum(frames.values()) / manager.tracker.num_executed
    assert per_subplan <= FRAMES_PER_SUBPLAN_CEILING, (
        f"{per_subplan:.2f} Python frames per executed subplan, ceiling "
        f"{FRAMES_PER_SUBPLAN_CEILING}: something on the arrival path works per subplan again; "
        f"the busiest functions: {frames.most_common(8)}"
    )


def test_frame_count_repeats_exactly():
    assert frames_by_function()[0] == frames_by_function()[0]


@pytest.mark.parametrize("shuffle_seed, batches_with_holes", [(None, 0), (0, 22)])
def test_one_probe_per_level_and_none_with_nothing_pending(
    monkeypatch, shuffle_seed, batches_with_holes
):
    """Per batch, at most one probe per plan position after the first, each
    fed no more rows than the level above put out; a batch with nothing
    pending is answered without a probe."""
    real_probe, real_execute = njoin.probe_hash_table, njoin.NAryJoin.execute_batch
    probes: List[Tuple[int, int]] = []  # (rows in, rows out) per call
    checked = []

    def counted_probe(table, joined_rows, slot_keys):
        output = real_probe(table, joined_rows, slot_keys)
        probes.append((len(joined_rows), len(output)))
        return output

    def checked_execute(self, batch, prepared, tables):
        nothing_pending = Batch(batch.lists, batch.ids, bytes(len(batch.ids)))
        assert real_execute(self, nothing_pending, prepared, tables) == [] and not probes
        results = real_execute(self, batch, prepared, tables)
        assert len(probes) <= len(self.plan.steps) - 1
        # ``prepared`` holds the segments of pending combinations only.
        first = sum(len(prepared[s].rows) for s in batch.lists[0] if s in prepared)
        rows_out = [first] + [rows for _, rows in probes]
        assert all(rows_in <= above for (rows_in, _), above in zip(probes, rows_out))
        checked.append((len(probes), batch.num_pending, len(batch.flags)))
        probes.clear()
        return results

    monkeypatch.setattr(njoin, "probe_hash_table", counted_probe)
    monkeypatch.setattr(njoin.NAryJoin, "execute_batch", checked_execute)
    manager = _feed(lambda _filename, _name: None, shuffle_seed)
    assert sum(pending for _, pending, _ in checked) == manager.tracker.num_executed == 96
    assert sum(pending < total for _, pending, total in checked) == batches_with_holes
    assert sum(probed for probed, _, _ in checked) > 0


# --------------------------------------------------------------------------- #
# Selections per service: one per filtered object, not one per delivery
# --------------------------------------------------------------------------- #
def test_a_shared_query_filters_each_object_once(monkeypatch):
    """Three Skipper tenants running Q6 twice each and two pull-based ones
    make 8 × as many deliveries as there are ``lineitem`` objects, and one
    bulk selection per object."""
    selections: Counter = Counter()
    real_filtered_rows = Segment.filtered_rows

    def counted(segment, predicate):
        selections[segment.segment_id] += 1
        return real_filtered_rows(segment, predicate)

    monkeypatch.setattr(Segment, "filtered_rows", counted)
    spec = ScenarioSpec(
        name="selection-budget",
        description="Q6 tenants of both modes sharing one CSD.",
        tenants=uniform_tenants(3, "tpch:q6", repetitions=2)
        + uniform_tenants(2, "tpch:q6", mode="vanilla", prefix="puller"),
        scale="small",
        seed=7,
    )
    service = StorageService(spec)
    result = service.run()
    segments = service.catalog.num_segments("lineitem")
    assert result.device_objects_served == (3 * 2 + 2) * segments
    assert sorted(selections) == sorted(service.catalog.segment_ids("lineitem"))
    assert sum(selections.values()) == segments
