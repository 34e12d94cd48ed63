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

When the frame count trips: diff the per-function counts against the parent
commit (``frames_by_function`` below tallies them through the shared
``frame_count.count_frames``).  What the budget was cut from: one ``min`` key lambda per cached
object per eviction, a ``_probe`` and a ``hash_table`` frame per probe, three
``Counter`` passes per arrival, one probe per cached segment of every position,
an outcome dataclass and its default-factory stats per arrival.
When the probe count trips: ``NAryJoin.execute_batch`` probed a segment's own
table where the relation's would do, or went on after a level left no row.
A third count covers the executions that share a run: frames per arrival a
follower takes from the shared MJoin run's log.  When it trips, a follower
feeds a state manager (or re-computes a charge) where the log has the step.
The ``bytes.count`` calls a batch's tallies cost are the fourth: a segment
alone at its position (the arriving one always is) is counted without one,
and a batch an eviction took a holes-only segment out of keeps the others'
counts.  Counts per service rather than per subplan — selections, local
joins — are in ``tests/test_cross_tenant_census.py``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from types import FrameType
from typing import Callable, List, Optional, Tuple

import pytest
from frame_count import count_frames
from mjoin_oracle import tracker_has_pending

from repro.core import njoin
from repro.core.cache import MaxProgressEviction, ObjectCache
from repro.core.execution import RunCursor
from repro.core.executor import SharedMJoin
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import Batch, SubplanLayout, SubplanTracker
from repro.engine.cost import CostModel
from repro.workloads import tpch

#: Frames per executed subplan, comprehension frames left out (CPython 3.12
#: inlines them, PEP 709; 3.13 enters 12 fewer, all in ``abc``'s checks).  With
#: one hash table per cached segment this scenario measured 24.38 (2 340
#: frames / 96 subplans), with one per relation 23.69 (2 274), with the
#: arrival returning its ``OperatorStats`` rather than an outcome record
#: 22.02 (2 114), with each re-fetched object's selection kept on the
#: segment and no ``prepare_segment`` frame 21.38 (2 052), with a segment
#: being its row list (no ``rows`` property frame) 20.89 (2 005), 19.14
#: (1 837) before an arrival derived its counts, ticks and checks once and
#: 17.20 (1 651) after, on every CPython 3.9–3.13.  The ceiling is that reading
#: plus 0.3: an arrival that enumerates its batch again instead of taking the
#: victim out of the one its eviction counted (17.58), or a retire that checks
#: the batch ``runnable_batch`` just minted (17.56), trips it.
FRAMES_PER_SUBPLAN_CEILING = 17.5
#: Frames per *followed* arrival — one that takes a shared MJoin run's logged
#: step — over the same scenario: ``RunCursor.arrive`` (its ``_follow``
#: until a fork) and ``SharedRun.step``, plus two per cycle end and the
#: walk's own two, 2.18
#: (122 frames / 56 arrivals); the ceiling is that plus one.  A follower that
#: feeds a state manager again enters about 37 per arrival (2 052 / 56 above).
FRAMES_PER_FOLLOWED_ARRIVAL_CEILING = 3.2
_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>")


def _tally(frames: Counter) -> Callable[[FrameType], None]:
    """An ``on_call`` that counts frames per (file, function), comprehensions
    left out."""

    def count(frame: FrameType) -> None:
        code = frame.f_code
        if code.co_name not in _COMPREHENSIONS:
            frames[code.co_filename.rsplit("repro/", 1)[-1], code.co_name] += 1

    return count


def _feed(
    on_call: Optional[Callable[[FrameType], None]] = None, shuffle_seed: Optional[int] = None
) -> MJoinStateManager:
    """Run the scenario, reporting every Python frame entered by the feed."""
    catalog = tpch.build_catalog("small", seed=42)
    query = tpch.q5()
    manager = MJoinStateManager(query, catalog, ObjectCache(len(query.tables) + 2))
    segments = {
        segment_id: catalog.resolve_segment_id(segment_id)
        for segment_id in manager.initial_requests()
    }

    def feed() -> None:
        requests = manager.initial_requests()
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(requests)
        while requests:
            for segment_id in requests:
                manager.on_arrival(segment_id, segments[segment_id])
            requests = manager.next_cycle_requests()

    count_frames(feed, on_call=on_call)
    assert not tracker_has_pending(manager.tracker)
    return manager


def frames_by_function() -> Tuple[Counter, MJoinStateManager]:
    """(frames entered per (file, function), the finished state manager)."""
    frames: Counter = Counter()
    manager = _feed(_tally(frames))
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


def test_a_followed_arrival_takes_the_logged_step():
    """The scenario twice through one shared run: the second walk delivers
    what the first did, so it follows the log and feeds no manager."""
    catalog = tpch.build_catalog("small", seed=42)
    query = tpch.q5()
    run = SharedMJoin(
        query, catalog, len(query.tables) + 2, MaxProgressEviction(), True, CostModel()
    )
    segments = {segment_id: catalog.resolve_segment_id(segment_id) for segment_id in run.initial_requests}
    delivered = []

    def walk(cursor: RunCursor) -> None:
        requests = list(run.initial_requests)
        while requests:
            for segment_id in requests:
                cursor.arrive(segment_id, segments[segment_id])
                delivered.append(segment_id)
            requests = cursor.end()[1]

    walk(RunCursor(run))
    first = len(delivered)
    follower = RunCursor(run)
    frames: Counter = Counter()
    count_frames(lambda: walk(follower), on_call=_tally(frames))
    assert len(delivered) == 2 * first == 112
    assert follower.private is None and follower.position == len(run.steps)
    per_arrival = sum(frames.values()) / first
    assert per_arrival <= FRAMES_PER_FOLLOWED_ARRIVAL_CEILING, (
        f"{per_arrival:.2f} Python frames per followed arrival, ceiling "
        f"{FRAMES_PER_FOLLOWED_ARRIVAL_CEILING}: a follower works again; {frames.most_common(8)}"
    )


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
        assert len(probes) <= len(batch.lists) - 1
        # ``prepared`` holds the segments of pending combinations only.
        first = sum(len(prepared[s].rows) for s in batch.lists[0] if s in prepared)
        rows_out = [first] + [rows for _, rows in probes]
        assert all(rows_in <= above for (rows_in, _), above in zip(probes, rows_out))
        checked.append((len(probes), batch.num_pending, len(batch.flags)))
        probes.clear()
        return results

    monkeypatch.setattr(njoin, "probe_hash_table", counted_probe)
    monkeypatch.setattr(njoin.NAryJoin, "execute_batch", checked_execute)
    manager = _feed(shuffle_seed=shuffle_seed)
    assert sum(pending for _, pending, _ in checked) == manager.tracker.num_executed == 96
    assert sum(pending < total for _, pending, total in checked) == batches_with_holes
    assert sum(probed for probed, _, _ in checked) > 0


def test_a_batch_counts_its_tallies_once():
    """The eviction's count and the retire read one batch's tallies: the
    second read is the memo, not a second pass over the flags."""
    catalog = tpch.build_catalog("small", seed=42)
    query = tpch.q5()
    tracker = SubplanTracker(SubplanLayout(query, catalog, query.tables))
    cached = {segment for table in query.tables for segment in catalog.segment_ids(table)}
    batch = tracker.runnable_batch(cached - {"region.0"}, "region.0")
    assert batch.num_pending and batch.tallies() is batch.tallies()


def count_calls(body: Callable[[], object]) -> int:
    """The ``bytes.count`` calls ``body`` makes."""
    calls = 0

    def profile(_frame: FrameType, event: str, arg: object) -> None:
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", None) == "count":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        body()
    finally:
        sys.setprofile(previous)
    return calls


def test_a_segment_alone_at_its_position_costs_no_count():
    """Its tally is the batch's pending count: only the two segments of the
    second position are counted, one ``bytes.count`` each."""
    batch = Batch([["a"], ["b", "c"]], [0, 1], b"\x01\x00")
    assert count_calls(batch.tallies) == 2
    assert batch.tallies() == {"a": 1, "b": 1, "c": 0}


def test_a_batch_without_a_holes_only_segment_keeps_the_counts():
    """Taking out a segment none of whose combinations is pending leaves every
    other count as it was: the new batch is not counted again."""
    batch = Batch([["a"], ["b", "c", "d"]], [0, 1, 2], b"\x01\x00\x00")
    assert batch.tallies()["d"] == 0
    smaller = batch.without(1, "d")
    assert count_calls(smaller.tallies) == 0
    fresh = Batch(smaller.lists, smaller.ids, smaller.flags)
    assert smaller.tallies() == fresh.tallies() == {"a": 1, "b": 1, "c": 0}


#: Frames a single-table query's tracker enters per object: the call itself
#: and, asked to count an eviction, the segment lookup.  A million-key
#: single-table query asks for every object, so the batch machinery (an
#: enumeration, a ``Batch`` and its tallies: three more frames) stays out.
SINGLE_TABLE_FRAMES = {"executable_tallies": 2, "prune_object": 1}


@pytest.mark.parametrize("call", sorted(SINGLE_TABLE_FRAMES))
def test_a_single_table_query_skips_the_batch_machinery(call):
    catalog = tpch.build_catalog("tiny", seed=42)
    query = tpch.q6()
    tracker = SubplanTracker(SubplanLayout(query, catalog, query.tables))
    first, second = catalog.segment_ids("lineitem")[:2]
    if call == "executable_tallies":
        answer, frames = count_frames(lambda: tracker.executable_tallies({first}, second))
        assert answer == {}
    else:
        answer, frames = count_frames(lambda: tracker.prune_object(second))
        assert answer == [tracker.offset_of(second)] and tracker.num_pruned == 1
    # The lambda is one frame of its own.
    assert frames - 1 <= SINGLE_TABLE_FRAMES[call]
