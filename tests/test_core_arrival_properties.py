"""Property tests for the product-structured MJoin arrival path.

Two equivalences the arrival path rests on:

* the prefix-shared batch walk returns, for every runnable combination,
  exactly the rows the single-subplan reference ``execute_ordered`` returns
  (same rows, same order — Skipper sums floats in arrival order), and the
  batch's cache accounting equals one ``get`` per segment of each
  combination;
* the arithmetic subplan tracker answers every question exactly like a
  brute-force oracle over ``enumerate_subplans``, through arbitrary
  arrive / evict / prune / re-issue sequences, including one-table,
  width-one-table and zero-segment-table queries.
"""

import copy
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.cache import (
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import SubplanTracker, enumerate_subplans
from repro.engine import Catalog, Column, DataType, InMemoryExecutor, Relation, TableSchema
from repro.engine.executor import canonical_rows
from repro.engine.predicate import col, lt
from repro.engine.query import AggregateSpec, JoinCondition, Query

_POLICIES = [MaxProgressEviction, MaxPendingSubplansEviction, LRUEviction, FIFOEviction]


# --------------------------------------------------------------------- #
# (a) Batch walk == per-subplan reference, cache accounting == per-get
# --------------------------------------------------------------------- #
@st.composite
def chain_joins(draw):
    """A catalog of one to three small tables joined in a chain, and the
    query over it: a count, a float sum and a filter that empties segments."""
    names = ["ta", "tb", "tc"][: draw(st.integers(min_value=1, max_value=3))]
    catalog = Catalog()
    for name in names:
        schema = TableSchema(
            name,
            [
                Column(f"{name}_prev", DataType.INTEGER),
                Column(f"{name}_next", DataType.INTEGER),
                Column(f"{name}_v", DataType.FLOAT),
            ],
        )
        keys = st.integers(min_value=0, max_value=2)
        # Multiples of 2**-10 below 2**10: every partial sum is exact, so the
        # float ``sum`` is the same in arrival order (Skipper) and scan order
        # (the in-memory reference) and the oracle can stay strict equality.
        values = st.integers(min_value=-(2**20), max_value=2**20).map(
            lambda numerator: numerator / 1024.0
        )
        rows = [
            {f"{name}_prev": prev, f"{name}_next": nxt, f"{name}_v": value}
            for prev, nxt, value in draw(
                st.lists(st.tuples(keys, keys, values), min_size=1, max_size=8)
            )
        ]
        catalog.register(
            Relation.from_rows(
                schema, rows, rows_per_segment=draw(st.integers(min_value=1, max_value=3))
            )
        )
    query = Query(
        name="chain",
        tables=names,
        joins=[
            JoinCondition(left, f"{left}_next", right, f"{right}_prev")
            for left, right in zip(names, names[1:])
        ],
        filters={"ta": lt("ta_v", draw(st.floats(min_value=-1e6, max_value=1e6, width=32)))},
        group_by=["ta_prev"],
        aggregates=[
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("sum", col(f"{names[-1]}_v"), "total"),
        ],
    )
    objects = [segment_id for name in names for segment_id in catalog.segment_ids(name)]
    return catalog, query, draw(st.permutations(objects))


class TestBatchWalkEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        case=chain_joins(),
        spare_capacity=st.integers(min_value=0, max_value=4),
        policy=st.sampled_from(_POLICIES),
        enable_pruning=st.booleans(),
    )
    def test_batch_equals_reference_rows_and_get_sequence(
        self, case, spare_capacity, policy, enable_pruning
    ):
        catalog, query, arrival_order = case
        cache = ObjectCache(len(query.tables) + spare_capacity, policy=policy())
        manager = MJoinStateManager(query, catalog, cache, enable_pruning=enable_pruning)
        njoin = manager.njoin
        real_get_batch, real_execute_batch = cache.get_batch, njoin.execute_batch
        batches = []

        def checked_get_batch(combinations):
            # What one ``get`` per segment of each combination would leave.
            twin = copy.deepcopy(cache)
            for combination in combinations:
                for segment_id in combination:
                    twin.get(segment_id)
            payloads = real_get_batch(combinations)
            assert cache.num_hits == twin.num_hits
            assert {entry.segment_id: entry.last_used for entry in cache.objects()} == {
                entry.segment_id: entry.last_used for entry in twin.objects()
            }
            # The next tick handed out must agree too.
            cache.get(combinations[0][0])
            twin.get(combinations[0][0])
            assert cache.peek(combinations[0][0]).last_used == (
                twin.peek(combinations[0][0]).last_used
            )
            return payloads

        def checked_execute_batch(combinations, prepared):
            results = real_execute_batch(combinations, prepared)
            assert len(results) == len(combinations)
            for combination, rows in zip(combinations, results):
                reference = njoin.execute_ordered(
                    [prepared[segment_id] for segment_id in combination]
                )
                assert rows == reference
            batches.append(len(combinations))
            return results

        cache.get_batch = checked_get_batch
        njoin.execute_batch = checked_execute_batch

        requests = list(arrival_order)
        for _ in range(40):  # LRU/FIFO may thrash at small capacities
            if not requests:
                break
            for segment_id in requests:
                manager.on_arrival(segment_id, catalog.resolve_segment_id(segment_id))
            requests = manager.next_cycle_requests()
        if manager.is_complete():
            assert manager.tracker.num_executed == sum(batches)
            assert canonical_rows(manager.results()) == canonical_rows(
                InMemoryExecutor(catalog).execute(query).rows
            )


# --------------------------------------------------------------------- #
# (b) Arithmetic tracker == brute-force oracle
# --------------------------------------------------------------------- #
class _SegmentLists:
    """Stands in for a catalog: the tracker only asks for segment ids."""

    def __init__(self, widths):
        self.tables = {
            f"t{position}": [f"t{position}.{index}" for index in range(width)]
            for position, width in enumerate(widths)
        }

    def segment_ids(self, table):
        return list(self.tables[table])


class _OracleTracker:
    """Every subplan spelled out, every question answered by scanning them."""

    def __init__(self, segments_per_table):
        self.combinations = enumerate_subplans(segments_per_table)
        self.state = ["pending"] * len(self.combinations)

    def _pending(self):
        return [
            (subplan_id, combination)
            for subplan_id, combination in enumerate(self.combinations)
            if self.state[subplan_id] == "pending"
        ]

    def runnable(self, cached, new_object):
        available = set(cached) | {new_object}
        return [
            (subplan_id, combination)
            for subplan_id, combination in self._pending()
            if new_object in combination and available.issuperset(combination)
        ]

    def executable_counts(self, cached, new_object):
        runnable = self.runnable(cached, new_object)
        return {
            segment_id: sum(segment_id in combination for _, combination in runnable)
            for segment_id in cached
        }

    def pending_count(self, segment_id):
        return sum(segment_id in combination for _, combination in self._pending())

    def objects(self):
        return sorted({segment_id for combination in self.combinations for segment_id in combination})

    def objects_needed(self):
        return {segment_id for _, combination in self._pending() for segment_id in combination}

    def retire(self, subplan_ids, state):
        for subplan_id in subplan_ids:
            assert self.state[subplan_id] == "pending"
            self.state[subplan_id] = state

    def prune(self, segment_id):
        pruned = [item for item in self._pending() if segment_id in item[1]]
        self.retire([subplan_id for subplan_id, _ in pruned], "pruned")
        return pruned


def _as_pairs(batch):
    ids, combinations = batch
    return list(zip(ids, combinations))


def _subplan_pairs(subplans):
    return [(subplan.subplan_id, subplan.segments) for subplan in subplans]


class TestTrackerMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        widths=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        capacity=st.integers(min_value=1, max_value=6),
        actions=st.lists(
            st.tuples(
                st.sampled_from(["arrive", "arrive", "arrive", "evict", "prune", "subplan-api"]),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=8),
            ),
            max_size=30,
        ),
    )
    def test_any_interleaving(self, widths, capacity, actions):
        lists = _SegmentLists(widths)
        query = SimpleNamespace(name="model", tables=tuple(lists.tables))
        tracker = SubplanTracker(query, lists)
        oracle = _OracleTracker(lists.tables)
        everything = [segment_id for ids in lists.tables.values() for segment_id in ids]
        cached = {}  # insertion-ordered, like the object cache's contents

        def check_agreement():
            assert tracker.total_subplans == len(oracle.combinations)
            assert tracker.num_pending == oracle.state.count("pending")
            assert tracker.num_executed == oracle.state.count("executed")
            assert tracker.num_pruned == oracle.state.count("pruned")
            assert tracker.has_pending() == ("pending" in oracle.state)
            assert tracker.objects() == oracle.objects()
            assert tracker.objects_needed() == oracle.objects_needed()
            assert tracker.pending_counts(everything) == {
                segment_id: oracle.pending_count(segment_id) for segment_id in everything
            }
            assert _subplan_pairs(tracker.pending_subplans()) == oracle._pending()

        check_agreement()
        for action, pick, other in actions:
            if not everything:
                break
            segment_id = everything[pick % len(everything)]
            if action == "arrive":
                # A first arrival, a duplicate or a re-issue after eviction.
                if segment_id in cached or not tracker.object_in_pending(segment_id):
                    assert tracker.object_in_pending(segment_id) == bool(
                        oracle.pending_count(segment_id)
                    )
                    continue
                if len(cached) >= capacity:
                    # The eviction policy's question first, then the arrival's
                    # — the second is answered from the first's enumeration.
                    view = cached.keys()
                    assert tracker.executable_counts(view, segment_id) == (
                        oracle.executable_counts(view, segment_id)
                    )
                    del cached[list(cached)[other % len(cached)]]
                runnable = tracker.runnable_batch(cached.keys(), segment_id)
                expected = oracle.runnable(cached, segment_id)
                assert _as_pairs(runnable) == expected
                tracker.mark_batch_executed(*runnable)
                oracle.retire([subplan_id for subplan_id, _ in expected], "executed")
                cached[segment_id] = True
            elif action == "evict":
                cached.pop(segment_id, None)
            elif action == "prune":
                expected = oracle.prune(segment_id)
                pruned = tracker.prune_object(segment_id)
                assert _subplan_pairs(pruned) == expected
                cached.pop(segment_id, None)
            else:
                # The Subplan-returning API, one subplan at a time.
                runnable = tracker.newly_runnable(set(cached), segment_id)
                expected = oracle.runnable(cached, segment_id)
                assert _subplan_pairs(runnable) == expected
                if runnable:
                    chosen = runnable[other % len(runnable)]
                    assert tracker.is_pending(chosen)
                    tracker.mark_executed(chosen)
                    assert not tracker.is_pending(chosen)
                    oracle.retire([chosen.subplan_id], "executed")
            check_agreement()

    def test_single_table_arrival_never_walks_the_cache(self):
        """What replaced the single-table tracker class: with no other table
        to combine with, an arrival is answered without looking at what is
        cached, however large the cache is."""

        class Unwalkable(frozenset):
            def __iter__(self):
                raise AssertionError("a single-table arrival iterated the cache")

        lists = _SegmentLists([5])
        tracker = SubplanTracker(SimpleNamespace(name="one", tables=("t0",)), lists)
        cached = Unwalkable({"t0.0", "t0.1"})
        assert tracker.runnable_batch(cached, "t0.3") == ([3], [("t0.3",)])
        tracker.mark_batch_executed([3], [("t0.3",)])
        assert tracker.runnable_batch(cached, "t0.3") == ([], [])
        assert tracker.prune_object_ids("t0.4") == [4]
        assert tracker.num_pending == 3
