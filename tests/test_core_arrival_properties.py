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

A fourth section holds the scan-only arrival — a duplicate, an object no
pending subplan needs, one pruned as empty — to the arrival as it was
written before it was answered inline: the same charge, bit for bit, and
the same tracker, cache, aggregate and counters after it.  A fifth holds
the one-pass eviction policies and the derived recency ticks to the
readable definitions in ``tests/mjoin_oracle.py``: the same victims, rows,
hits and ticks on TPC-H Q3 / Q5 and SSB Q2.1 in any arrival order.
"""

import copy
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mjoin_oracle import (
    ReadableMaxPending,
    ReadableMaxProgress,
    ReferenceCache,
    executable_counts,
    pending_counts,
    reference_get,
    tracker_has_pending,
)

from repro.core.cache import (
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.executor import SharedMJoin
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import Batch, SubplanLayout, SubplanTracker, enumerate_subplans
from repro.engine import Catalog, Column, DataType, InMemoryExecutor, Relation, TableSchema
from repro.engine.cost import CostModel
from repro.engine.executor import canonical_rows
from repro.engine.operators.base import OperatorStats
from repro.engine.operators.hash_join import build_hash_table
from repro.engine.operators.scan import select_rows
from repro.engine.predicate import Comparison, col, lit
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.exceptions import QueryError
from repro.workloads import ssb, tpch


def _num_pending(tracker):
    """Subplans neither executed nor pruned yet."""
    return tracker.total_subplans - tracker.num_executed - tracker.num_pruned


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
        filters={
            "ta": Comparison(
                "<", col("ta_v"), lit(draw(st.floats(min_value=-1e6, max_value=1e6, width=32)))
            )
        },
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
            # What one access per segment of each combination would leave.
            combinations = batch.combinations()
            twin = copy.deepcopy(cache)
            for combination in combinations:
                for segment_id in combination:
                    reference_get(twin, segment_id)
            payloads = real_get_batch(batch)
            assert set(payloads) == set(itertools.chain.from_iterable(combinations))
            assert cache.num_hits == twin.num_hits
            assert {entry.segment_id: entry.last_used for entry in cache.objects()} == {
                entry.segment_id: entry.last_used for entry in twin.objects()
            }
            # The next tick handed out must agree too.
            reference_get(cache, combinations[0][0])
            reference_get(twin, combinations[0][0])
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
        if not tracker_has_pending(manager.tracker):
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
    for segment_id in tracker.layout.catalog.segment_ids(tracker.table_order[0]):
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
        tracker = SubplanTracker(SubplanLayout(query, lists, query.tables))
        oracle = _OracleTracker(lists.tables)
        everything = [segment_id for ids in lists.tables.values() for segment_id in ids]
        cached = {}  # insertion-ordered, like the object cache's contents

        def check_agreement():
            assert tracker.total_subplans == len(oracle.combinations)
            assert _num_pending(tracker) == oracle.state.count("pending")
            assert tracker.num_executed == oracle.state.count("executed")
            assert tracker.num_pruned == oracle.state.count("pruned")
            assert tracker_has_pending(tracker) == ("pending" in oracle.state)
            assert tracker.objects_needed() == oracle.objects_needed()
            assert pending_counts(tracker, everything) == {
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
                if segment_id in cached or not tracker.pending_count_of(segment_id):
                    assert tracker.pending_count_of(segment_id) == oracle.pending_count(segment_id)
                    continue
                victim = None
                if len(cached) >= capacity:
                    # The eviction policy's question first, then the arrival's
                    # — the second, told the victim, is answered from the
                    # first's enumeration.
                    view = cached.keys()
                    counts = executable_counts(tracker, view, segment_id)
                    assert counts == oracle.executable_counts(view, segment_id)
                    assert list(counts) == list(pending_counts(tracker, view)) == list(view)
                    tallies = tracker.executable_tallies(view, segment_id)
                    assert {s: tallies.get(s, 0) for s in view} == counts
                    victim = list(cached)[other % len(cached)]
                    del cached[victim]
                runnable = tracker.runnable_batch(cached.keys(), segment_id, victim)
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
        query = SimpleNamespace(name="one", tables=("t0",))
        tracker = SubplanTracker(SubplanLayout(query, lists, ("t0",)))
        cached = Unwalkable({"t0.0", "t0.1"})
        batch = tracker.runnable_batch(cached, "t0.3")
        assert _as_pairs(batch) == [(3, ("t0.3",))]
        tracker.mark_batch_executed(batch)
        assert _as_pairs(tracker.runnable_batch(cached, "t0.3")) == []
        assert tracker.prune_object("t0.4") == [4]
        assert _num_pending(tracker) == 3


# --------------------------------------------------------------------- #
# (c) A Batch == the segment tuples it stands for
# --------------------------------------------------------------------- #
@st.composite
def batches(draw):
    """Lists of zero to four segments at one to four positions, arbitrary
    distinct ids and a flag string: all pending, all holes, hole-heavy or
    anything."""
    widths = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4))
    lists = [[f"t{position}.{index}" for index in range(width)] for position, width in enumerate(widths)]
    total = len(list(itertools.product(*lists)))
    ids = draw(st.permutations(range(100, 100 + total)))
    flag = draw(
        st.sampled_from([st.just(1), st.just(0), st.sampled_from([0, 0, 0, 1]), st.integers(0, 1)])
    )
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
        # Room for every segment and the ``next`` object added at the end.
        cache = ObjectCache(sum(map(len, lists)) + 1)
        for segments in lists:
            for segment_id in segments:
                cache.add(segment_id, segment_id.upper())
        for _ in range(clock if lists[0] else 0):
            reference_get(cache, lists[0][0])
        twin = copy.deepcopy(cache)
        for combination in batch.combinations():
            for segment_id in combination:
                reference_get(twin, segment_id)
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


# --------------------------------------------------------------------- #
# (d) A scan-only arrival == the arrival as it was written before
# --------------------------------------------------------------------- #
def _scan_only_as_before(manager, segment_id, segment):
    """The arrival path before scan-only arrivals were answered inline, up
    to the point where an object stays: a fresh ``OperatorStats`` merged
    into the manager's, a cache membership test, the tracker's pending
    count and the query's ``filter_for``.  ``None`` for an object that stays
    (nothing changed then but the segment's kept selection)."""
    stats = OperatorStats(tuples_scanned=segment.num_rows)
    pending = pending_counts(manager.tracker, [segment_id])[segment_id]
    if segment_id in manager.cache.ids_view() or not pending:
        manager.stats.merge(stats)
        return stats
    rows = select_rows(segment, manager.query.filter_for(segment.table_name))
    if manager.enable_pruning and not rows:
        manager.tracker.prune_object(segment_id)
        manager.stats.merge(stats)
        return stats
    return None


def _state(manager, everything):
    """Everything an arrival may change, as comparable values."""
    tracker, cache = manager.tracker, manager.cache
    return (
        tracker.num_executed,
        tracker.num_pruned,
        pending_counts(tracker, everything),
        list(cache.ids_view()),
        (cache.num_hits, cache.num_insertions, cache.num_evictions, cache.peak_occupancy),
        canonical_rows(manager.aggregate.results()),
        manager.stats,
    )


class TestScanOnlyArrival:
    @settings(max_examples=100, deadline=None)
    @given(
        case=chain_joins(),
        spare_capacity=st.integers(min_value=0, max_value=2),
        policy=st.sampled_from(_POLICIES),
        enable_pruning=st.booleans(),
        deliveries=st.lists(st.integers(min_value=0), max_size=40),
    )
    def test_it_leaves_what_the_arrival_before_left(
        self, case, spare_capacity, policy, enable_pruning, deliveries
    ):
        """Deliveries drawn with repeats (duplicates, re-fetches, objects
        whose subplans are all done), fed to two managers in lockstep: one
        arrives as it does now, the other scan-only arrivals as before and
        the rest as now."""
        catalog, query, objects = case

        def manager():
            cache = ObjectCache(len(query.tables) + spare_capacity, policy=policy())
            return MJoinStateManager(query, catalog, cache, enable_pruning=enable_pruning)

        actual, reference = manager(), manager()
        assert actual.plan.join_order == reference.plan.join_order
        scan_only = 0
        for pick in deliveries:
            segment_id = objects[pick % len(objects)]
            segment = catalog.resolve_segment_id(segment_id)
            expected = _scan_only_as_before(reference, segment_id, segment)
            scan_only += expected is not None
            if expected is None:
                expected = reference.on_arrival(segment_id, segment)
            assert actual.on_arrival(segment_id, segment) == expected
            assert _state(actual, objects) == _state(reference, objects)
        if len(deliveries) > 2 * len(objects):
            assert scan_only  # every object delivered again at least once

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        scale=st.floats(0.0, 1000.0),
        rows=st.integers(min_value=0, max_value=10**7),
    )
    def test_its_charge_is_cpu_time_of_the_scan_bit_for_bit(self, rates, scale, rows):
        """``SharedMJoin.arrive`` charges a scan-only arrival inline, leaving
        ``cpu_time``'s three zero terms out; a finite non-negative charge is
        the same float with them.  The duplicate delivered is a stand-in
        whose rows only count."""
        cost_model = CostModel(*rates, tuple_scale=scale)
        run = SharedMJoin(tpch.q12(), _TINY, 10, None, True, cost_model)
        state = run.state
        orders = "orders.0"
        kept = run.arrive(state, orders, _TINY.resolve_segment_id(orders))
        assert kept == cost_model.cpu_time(state.stats)
        duplicate = SimpleNamespace(table_name="orders", rows=range(rows))
        scanned_before = state.stats.tuples_scanned
        assert run.arrive(state, orders, duplicate) == cost_model.cpu_time(
            OperatorStats(tuples_scanned=rows)
        )
        assert state.stats.tuples_scanned == scanned_before + rows

    def test_a_segment_of_no_table_of_the_query_raises_every_time(self):
        manager = MJoinStateManager(tpch.q12(), _TINY, ObjectCache(10))
        foreign = _TINY.resolve_segment_id("customer.0")
        for _delivery in ("first", "repeated"):
            with pytest.raises(QueryError, match="belongs to no table of query"):
                manager.on_arrival("customer.0", foreign)
        assert manager.stats == OperatorStats()
        assert not manager.cache.ids_view() and manager.tracker.num_pruned == 0


# --------------------------------------------------------------------- #
# (e) One-pass victims == the readable definitions
# --------------------------------------------------------------------- #
#: Each policy, and what its victims are held to: the readable definition
#: of its question (``tests/mjoin_oracle.py``), or for the recency and
#: insertion baselines the same policy over stored, not derived, ticks.
_READABLE = {
    MaxProgressEviction: ReadableMaxProgress,
    MaxPendingSubplansEviction: ReadableMaxPending,
    LRUEviction: LRUEviction,
    FIFOEviction: FIFOEviction,
}
_TINY_SSB = ssb.build_catalog("tiny", seed=42, catalog=Catalog())


def _recorded(policy, victims):
    """``policy`` with every victim it chooses appended to ``victims``."""
    choose = policy.choose_victim

    def choose_victim(cache, new_object, tracker):
        victims.append(choose(cache, new_object, tracker))
        return victims[-1]

    policy.choose_victim = choose_victim
    return policy


class TestOnePassVictimsEqualTheReadableDefinitions:
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(["tpch q3", "tpch q5", "ssb q2_1"]),
        policy=st.sampled_from(_POLICIES),
        spare_capacity=st.integers(min_value=0, max_value=4),
        enable_pruning=st.booleans(),
        data=st.data(),
    )
    def test_same_victims_rows_hits_and_ticks(
        self, case, policy, spare_capacity, enable_pruning, data
    ):
        """Two managers fed one arrival order, cycle after cycle: one with the
        object cache and its policy, the other with the reference cache and
        the readable policy.  Every arrival's work, every victim, the result
        rows, the hit and eviction counts and every tick agree."""
        workload, name = case.split()
        catalog = _TINY if workload == "tpch" else _TINY_SSB
        query = (tpch if workload == "tpch" else ssb).query(name)
        capacity = len(query.tables) + spare_capacity
        victims, readable_victims = [], []
        actual = MJoinStateManager(
            query,
            catalog,
            ObjectCache(capacity, policy=_recorded(policy(), victims)),
            enable_pruning=enable_pruning,
        )
        readable = MJoinStateManager(
            query,
            catalog,
            ReferenceCache(capacity, policy=_recorded(_READABLE[policy](), readable_victims)),
            enable_pruning=enable_pruning,
        )
        requests = data.draw(st.permutations(actual.initial_requests()))
        for _ in range(10):  # LRU/FIFO may thrash at small capacities
            if not requests:
                break
            for segment_id in requests:
                segment = catalog.resolve_segment_id(segment_id)
                assert actual.on_arrival(segment_id, segment) == readable.on_arrival(
                    segment_id, segment
                )
                assert victims == readable_victims
            requests = actual.next_cycle_requests()
            assert requests == readable.next_cycle_requests()
            requests = data.draw(st.permutations(requests))
        assert actual.results() == readable.results()
        for counter in ("num_hits", "num_evictions", "num_insertions", "_clock"):
            assert getattr(actual.cache, counter) == getattr(readable.cache, counter), counter
        assert [(e.segment_id, e.last_used) for e in actual.cache.objects()] == [
            (e.segment_id, e.last_used) for e in readable.cache.objects()
        ]
        assert (actual.tracker.num_executed, actual.tracker.num_pruned) == (
            readable.tracker.num_executed,
            readable.tracker.num_pruned,
        )


_TINY = tpch.build_catalog("tiny", seed=42)
