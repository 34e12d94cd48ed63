"""Property tests for the product-structured MJoin arrival path.

Three equivalences the arrival path rests on:

* the one-probe-per-level batch join returns, for the subplans of a batch
  that produce rows, exactly the rows the single-subplan reference
  ``execute_ordered`` returns (same rows, same order — Skipper sums floats in
  arrival order) and leaves out only subplans whose reference is empty; the
  per-relation hash tables it probes hold, after every arrival, exactly the
  segments then cached; and the batch's cache accounting equals one ``get``
  per segment of each pending combination;
* the arithmetic subplan tracker answers every question exactly like a
  brute-force oracle over ``enumerate_subplans``, through arbitrary
  arrive / evict / prune / re-issue sequences, including one-table,
  width-one-table and zero-segment-table queries;
* a ``Batch`` — lists, ids and flags in product layout — is the set of
  segment tuples it stands for: its tallies are their occurrence counts and
  taking a segment out equals enumerating again without it.
"""

import copy
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import (
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import Batch, SubplanTracker, enumerate_subplans
from repro.engine import Catalog, Column, DataType, InMemoryExecutor, Relation, TableSchema
from repro.engine.executor import canonical_rows
from repro.engine.operators.hash_join import build_hash_table
from repro.engine.predicate import col, lt
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.exceptions import QueryError

_POLICIES = [MaxProgressEviction, MaxPendingSubplansEviction, LRUEviction, FIFOEviction]


# --------------------------------------------------------------------- #
# (a) Batch join == per-subplan reference, cache accounting == per-get
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
        # Few distinct keys, so they repeat within and across segments, and
        # NULLs, which join nothing and sit in no hash table.
        keys = st.sampled_from([0, 1, 2, None])
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


def _per_segment(table):
    """A hash table's matches grouped per segment: key → offset → the
    ``(row identity, offset)`` of its matches, in bucket order."""
    grouped = {}
    for key, matches in table.items():
        assert matches, f"an empty bucket was left behind under key {key!r}"
        for row, offset in matches:
            grouped.setdefault(key, {}).setdefault(offset, []).append((id(row), offset))
    return grouped


def _assert_relation_tables_hold_the_cached_segments(manager):
    """Every relation table equals ``build_hash_table`` over the rows of the
    currently cached segments of its position, segment by segment."""
    steps = manager.plan.steps[1:]
    assert list(manager.relation_tables) == [step.table for step in steps]
    cached = [entry.payload for entry in manager.cache.objects()]
    for step in steps:
        key_columns = [condition.column_for(step.table) for condition in step.conditions]
        rebuilt = {}
        for segment in cached:
            if segment.table_name == step.table:
                for key, matches in build_hash_table(segment.rows, key_columns).items():
                    rebuilt.setdefault(key, {})[segment.offset] = [
                        (id(row), segment.offset) for (row,) in matches
                    ]
        assert _per_segment(manager.relation_tables[step.table]) == rebuilt


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

        def checked_get_batch(batch):
            # What one ``get`` per segment of each combination would leave.
            combinations = batch.combinations()
            twin = copy.deepcopy(cache)
            for combination in combinations:
                for segment_id in combination:
                    twin.get(segment_id)
            payloads = real_get_batch(batch)
            assert set(payloads) == set(itertools.chain.from_iterable(combinations))
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

        def checked_execute_batch(batch, prepared, tables):
            results = real_execute_batch(batch, prepared, tables)
            references = [
                njoin.execute_ordered([prepared[segment_id] for segment_id in combination])
                for combination in batch.combinations()
            ]
            # In id order, and whatever was left out has no rows.
            assert results == [rows for rows in references if rows]
            batches.append(batch.num_pending)
            return results

        cache.get_batch = checked_get_batch
        njoin.execute_batch = checked_execute_batch

        requests = list(arrival_order)
        for _ in range(40):  # LRU/FIFO may thrash at small capacities
            if not requests:
                break
            for segment_id in requests:
                manager.on_arrival(segment_id, catalog.resolve_segment_id(segment_id))
                _assert_relation_tables_hold_the_cached_segments(manager)
            requests = manager.next_cycle_requests()
        if not manager.tracker.has_pending():
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
    return list(zip(itertools.compress(batch.ids, batch.flags), batch.combinations()))


def _assert_product_layout(batch, oracle):
    """Ids and flags line up with ``product(*lists)``, holes included."""
    candidates = list(itertools.product(*batch.lists))
    assert batch.ids == [oracle.combinations.index(combination) for combination in candidates]
    assert batch.flags == bytes(oracle.state[subplan_id] == "pending" for subplan_id in batch.ids)
    assert batch.num_pending == sum(batch.flags)


def _pending_pairs(tracker, everything):
    """Every pending subplan as ``(id, segments)``, in id order: per segment of
    the first table, the pending combinations of the batch it would complete
    with every object cached — a question that changes no tracker state."""
    pairs = []
    for segment_id in tracker.catalog.segment_ids(tracker.table_order[0]):
        pairs += _as_pairs(tracker.runnable_batch(everything, segment_id))
    return pairs


class TestTrackerMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        widths=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        capacity=st.integers(min_value=1, max_value=6),
        actions=st.lists(
            st.tuples(
                st.sampled_from(["arrive", "arrive", "arrive", "evict", "prune", "one-subplan"]),
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
            assert tracker.objects_needed() == oracle.objects_needed()
            assert tracker.pending_counts(everything) == {
                segment_id: oracle.pending_count(segment_id) for segment_id in everything
            }
            assert _pending_pairs(tracker, everything) == oracle._pending()

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
                    counts = tracker.executable_counts(view, segment_id)
                    assert counts == oracle.executable_counts(view, segment_id)
                    # The eviction policies zip the values with the view.
                    assert list(counts) == list(tracker.pending_counts(view)) == list(view)
                    del cached[list(cached)[other % len(cached)]]
                runnable = tracker.runnable_batch(cached.keys(), segment_id)
                expected = oracle.runnable(cached, segment_id)
                assert _as_pairs(runnable) == expected
                _assert_product_layout(runnable, oracle)
                tracker.mark_batch_executed(runnable)
                oracle.retire([subplan_id for subplan_id, _ in expected], "executed")
                cached[segment_id] = True
            elif action == "evict":
                cached.pop(segment_id, None)
            elif action == "prune":
                expected = oracle.prune(segment_id)
                pruned = tracker.prune_object(segment_id)
                assert pruned == [subplan_id for subplan_id, _ in expected]
                cached.pop(segment_id, None)
            else:
                # One runnable subplan alone, as a one-combination batch.
                expected = oracle.runnable(cached, segment_id)
                if expected:
                    subplan_id, combination = expected[other % len(expected)]
                    chosen = Batch([[s] for s in combination], [subplan_id], b"\x01")
                    tracker.mark_batch_executed(chosen)
                    oracle.retire([subplan_id], "executed")
                    with pytest.raises(QueryError, match=f"#{subplan_id} is not pending"):
                        tracker.mark_batch_executed(chosen)
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
        batch = tracker.runnable_batch(cached, "t0.3")
        assert _as_pairs(batch) == [(3, ("t0.3",))]
        tracker.mark_batch_executed(batch)
        assert _as_pairs(tracker.runnable_batch(cached, "t0.3")) == []
        assert tracker.prune_object("t0.4") == [4]
        assert tracker.num_pending == 3


# --------------------------------------------------------------------- #
# (c) A Batch == the segment tuples it stands for
# --------------------------------------------------------------------- #
@st.composite
def batches(draw):
    """Lists of zero to four segments at one to four positions, arbitrary
    distinct ids and a flag string: all pending, hole-heavy or anything."""
    widths = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4))
    lists = [[f"t{position}.{index}" for index in range(width)] for position, width in enumerate(widths)]
    total = len(list(itertools.product(*lists)))
    ids = draw(st.permutations(range(100, 100 + total)))
    flag = draw(st.sampled_from([st.just(1), st.sampled_from([0, 0, 0, 1]), st.integers(0, 1)]))
    flags = bytes(draw(st.lists(flag, min_size=total, max_size=total)))
    return lists, list(ids), flags


def _enumerated(lists, ids, flags, absent=None):
    """The batch a fresh enumeration over ``lists`` minus ``absent`` gives."""
    kept = [
        (subplan_id, flag)
        for combination, subplan_id, flag in zip(itertools.product(*lists), ids, flags)
        if absent not in combination
    ]
    return Batch(
        [[segment_id for segment_id in segments if segment_id != absent] for segments in lists],
        [subplan_id for subplan_id, _ in kept],
        bytes(flag for _, flag in kept),
    )


def _spelled_out(batch):
    return (batch.lists, batch.ids, batch.flags, batch.num_pending, batch.tallies())


class TestBatchIsItsCombinations:
    @settings(max_examples=300, deadline=None)
    @given(case=batches())
    def test_views_and_tallies(self, case):
        lists, ids, flags = case
        batch = Batch(lists, ids, flags)
        pending = [
            (subplan_id, combination)
            for combination, subplan_id, flag in zip(itertools.product(*lists), ids, flags)
            if flag
        ]
        assert _as_pairs(batch) == pending
        assert batch.num_pending == len(pending)
        occurrences = Counter(itertools.chain.from_iterable(batch.combinations()))
        # Every segment of the lists has a tally, zero when it is all holes.
        assert batch.tallies() == {
            segment_id: occurrences[segment_id] for segments in lists for segment_id in segments
        }

    @settings(max_examples=300, deadline=None)
    @given(
        case=batches(),
        position=st.integers(min_value=0, max_value=3),
        index=st.integers(min_value=0, max_value=4),
        tallied_first=st.booleans(),
    )
    def test_without_equals_enumerating_again(self, case, position, index, tallied_first):
        lists, ids, flags = case
        position %= len(lists)
        # One past the end: a segment the list does not hold.
        victim = f"t{position}.{index}"
        batch = Batch(lists, ids, flags)
        if tallied_first:  # the tallies are carried over when the victim had none
            batch.tallies()
        smaller = batch.without(position, victim)
        assert _spelled_out(smaller) == _spelled_out(_enumerated(lists, ids, flags, absent=victim))
        assert _spelled_out(batch) == _spelled_out(Batch(lists, ids, flags))
        # Twice in a row, as after two evictions.
        again = smaller.without(0, "t0.0")
        assert _spelled_out(again) == _spelled_out(
            _enumerated(smaller.lists, smaller.ids, smaller.flags, absent="t0.0")
        )

    @settings(max_examples=200, deadline=None)
    @given(case=batches(), clock=st.integers(min_value=0, max_value=5))
    def test_cache_accounting_of_any_batch_equals_one_get_per_occurrence(self, case, clock):
        lists, ids, flags = case
        batch = Batch(lists, ids, flags)
        cache = ObjectCache(16)
        for segments in lists:
            for segment_id in segments:
                cache.add(segment_id, segment_id.upper())
        for _ in range(clock if lists[0] else 0):
            cache.get(lists[0][0])
        twin = copy.deepcopy(cache)
        for combination in batch.combinations():
            for segment_id in combination:
                twin.get(segment_id)
        payloads = cache.get_batch(batch)
        assert payloads == {
            segment_id: segment_id.upper()
            for segment_id in itertools.chain.from_iterable(batch.combinations())
        }
        assert cache.num_hits == twin.num_hits
        assert [entry.last_used for entry in cache.objects()] == [
            entry.last_used for entry in twin.objects()
        ]
        cache.add("next", None)
        twin.add("next", None)
        assert cache.peek("next").inserted_at == twin.peek("next").inserted_at

    def test_a_misaligned_batch_cannot_be_built(self):
        with pytest.raises(QueryError):
            Batch([["t0.0", "t0.1"], ["t1.0"]], [0, 1, 2], b"\x01\x01\x01")
        with pytest.raises(QueryError):
            Batch([["t0.0", "t0.1"], ["t1.0"]], [0, 1], b"\x01")
