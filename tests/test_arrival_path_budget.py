"""Deterministic budgets for the MJoin arrival path.

Two counts that repeat exactly, so they can gate in tier-1 where a wall-clock
number cannot (compare ``tests/test_request_path_budget.py``): Python frames
entered per executed subplan, and ``probe_hash_table`` calls per batch against
the batch's live trie nodes.  They are the tripwire for per-subplan work
creeping back between ``SubplanTracker.runnable_batch`` and
``mark_batch_executed`` — a batch is a product and nothing on the path may
spell its combinations out.

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
``Counter`` passes per arrival.  When the probe count trips: the walk in
``NAryJoin.execute_batch`` probed under a prefix whose intermediate was empty
or whose subtree had nothing pending — diff its two skips (``find`` on the
flags, ``if joined``).
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
from repro.workloads import tpch

#: Frames per executed subplan, comprehension frames left out (CPython 3.12
#: inlines them, PEP 709; the count was the same on 3.11 and 3.13).  The
#: parent commit measured 36.29 on this scenario (3 484 frames / 96 subplans),
#: this one 24.38 (2 340); the ceiling is 30 % under the parent, so one more
#: frame per probe, or two per arrival, trips it.
FRAMES_PER_SUBPLAN_CEILING = 25.4
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
    assert manager.is_complete()
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
def test_no_probe_under_a_dead_or_nothing_pending_prefix(
    monkeypatch, shuffle_seed, batches_with_holes
):
    """Per batch, at most one probe per live trie node: a prefix of two or
    more segments that some pending combination starts with and whose parent
    prefix joined to at least one row."""
    real_probe, real_execute = njoin.probe_hash_table, njoin.NAryJoin.execute_batch
    probes: List[int] = []
    checked = []

    def counted_probe(*args):
        probes.append(1)
        return real_probe(*args)

    def checked_execute(self, batch, prepared):
        live_nodes = 0
        joined_rows = {(): None}  # prefix -> its joined rows (None: nothing joined yet)
        for combination in batch.combinations():
            for depth in range(len(combination)):
                prefix = combination[: depth + 1]
                if prefix in joined_rows:
                    continue
                above = joined_rows[prefix[:-1]]
                if depth == 0:
                    joined_rows[prefix] = list(zip(prepared[prefix[0]].rows))
                elif above:
                    live_nodes += 1
                    slot_keys, build_columns = self._step_keys[depth - 1]
                    table = prepared[prefix[-1]].hash_table(build_columns)
                    joined_rows[prefix] = real_probe(table, above, slot_keys)
                else:
                    joined_rows[prefix] = []
        before = len(probes)
        results = real_execute(self, batch, prepared)
        checked.append((len(probes) - before, live_nodes, batch.num_pending, len(batch.flags)))
        return results

    monkeypatch.setattr(njoin, "probe_hash_table", counted_probe)
    monkeypatch.setattr(njoin.NAryJoin, "execute_batch", checked_execute)
    manager = _feed(lambda _filename, _name: None, shuffle_seed)
    assert sum(pending for _, _, pending, _ in checked) == manager.tracker.num_executed == 96
    assert sum(pending < total for _, _, pending, total in checked) == batches_with_holes
    assert sum(probed for probed, _, _, _ in checked) > 0
    for probed, live_nodes, _pending, _total in checked:
        assert probed <= live_nodes
