"""Unit tests for subplan enumeration and tracking."""

from itertools import compress

import pytest
from mjoin_oracle import executable_counts, pending_counts, tracker_has_pending

from repro.core.cache import ObjectCache
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import Batch, SubplanLayout, SubplanTracker, enumerate_subplans
from repro.engine.operators.base import OperatorStats
from repro.exceptions import QueryError
from repro.workloads import tpch


def _num_pending(tracker):
    """Subplans neither executed nor pruned yet."""
    return tracker.total_subplans - tracker.num_executed - tracker.num_pruned


@pytest.fixture()
def q12_tracker(tiny_tpch_catalog):
    return SubplanTracker(SubplanLayout(tpch.q12(), tiny_tpch_catalog, tpch.q12().tables))


@pytest.fixture()
def q12_objects(tiny_tpch_catalog):
    """Every object of Q12, in the tracker's table order."""
    return tiny_tpch_catalog.segment_ids("orders") + tiny_tpch_catalog.segment_ids("lineitem")


def execute(tracker, combination):
    """Execute one combination (one segment per table, in the tracker's table
    order) as a one-combination batch; returns its subplan id."""
    subplan_id = sum(map(tracker.offset_of, combination))
    tracker.mark_batch_executed(Batch([[s] for s in combination], [subplan_id], b"\x01"))
    return subplan_id


def pending_pairs(tracker, objects):
    """``(id, segments)`` of every pending subplan, in id order: per segment of
    the first table, the pending combinations of the batch it would complete
    with every object cached — a question that changes no tracker state."""
    pairs = []
    for segment_id in tracker.layout.catalog.segment_ids(tracker.table_order[0]):
        batch = tracker.runnable_batch(objects, segment_id)
        pairs += zip(compress(batch.ids, batch.flags), batch.combinations())
    return pairs


class TestEnumeration:
    def test_table2_example(self):
        """The paper's Table 2: 2 x 2 x 2 segments -> 8 subplans."""
        subplans = enumerate_subplans(
            {"A": ["A.1", "A.2"], "B": ["B.1", "B.2"], "C": ["C.1", "C.3"]}
        )
        assert len(subplans) == 8
        assert ("A.1", "B.1", "C.1") in subplans
        assert ("A.2", "B.2", "C.3") in subplans
        assert len(set(subplans)) == 8

    def test_total_is_product_of_segment_counts(self, tiny_tpch_catalog, q12_tracker):
        expected = tiny_tpch_catalog.num_segments("orders") * tiny_tpch_catalog.num_segments(
            "lineitem"
        )
        assert q12_tracker.total_subplans == expected
        assert _num_pending(q12_tracker) == expected

    def test_q5_subplans_product(self, tiny_tpch_catalog):
        tracker = SubplanTracker(SubplanLayout(tpch.q5(), tiny_tpch_catalog, tpch.q5().tables))
        expected = 1
        for table in tpch.q5().tables:
            expected *= tiny_tpch_catalog.num_segments(table)
        assert tracker.total_subplans == expected

    def test_table_order_must_cover_query(self, tiny_tpch_catalog):
        with pytest.raises(QueryError):
            SubplanTracker(SubplanLayout(tpch.q12(), tiny_tpch_catalog, ["orders"]))


class TestTrackerTransitions:
    def test_mark_executed_moves_state(self, q12_tracker, q12_objects):
        batch = q12_tracker.runnable_batch({"orders.0"}, "lineitem.0")
        assert batch.combinations() == [("orders.0", "lineitem.0")]
        q12_tracker.mark_batch_executed(batch)
        assert q12_tracker.num_executed == 1
        assert q12_tracker.runnable_batch({"orders.0"}, "lineitem.0").num_pending == 0
        # Executing it again raises before anything is changed.
        before = (
            _num_pending(q12_tracker),
            q12_tracker.num_executed,
            pending_counts(q12_tracker, q12_objects),
        )
        with pytest.raises(QueryError, match=f"#{batch.ids[0]} is not pending"):
            q12_tracker.mark_batch_executed(batch)
        assert (
            _num_pending(q12_tracker),
            q12_tracker.num_executed,
            pending_counts(q12_tracker, q12_objects),
        ) == before

    def test_pending_count_for_object(self, tiny_tpch_catalog, q12_tracker):
        lineitem_segments = tiny_tpch_catalog.num_segments("lineitem")
        orders_segments = tiny_tpch_catalog.num_segments("orders")
        assert pending_counts(q12_tracker, ["orders.0", "lineitem.0", "unknown.0"]) == {
            "orders.0": lineitem_segments,
            "lineitem.0": orders_segments,
            "unknown.0": 0,
        }

    def test_prune_object_discards_its_subplans(self, tiny_tpch_catalog, q12_tracker):
        before = _num_pending(q12_tracker)
        pruned = q12_tracker.prune_object("lineitem.0")
        assert len(pruned) == tiny_tpch_catalog.num_segments("orders")
        assert pruned == sorted(pruned)
        assert _num_pending(q12_tracker) == before - len(pruned)
        assert q12_tracker.num_pruned == len(pruned)
        assert pending_counts(q12_tracker, ["lineitem.0"]) == {"lineitem.0": 0}
        assert q12_tracker.pending_count_of("lineitem.0") == 0
        assert q12_tracker.prune_object("lineitem.0") == []

    def test_objects_needed_shrinks_as_subplans_finish(self, q12_tracker):
        assert "lineitem.0" in q12_tracker.objects_needed()
        q12_tracker.prune_object("lineitem.0")
        assert "lineitem.0" not in q12_tracker.objects_needed()

    def test_has_pending_goes_false_when_everything_handled(self, tiny_tpch_catalog):
        tracker = SubplanTracker(SubplanLayout(tpch.q12(), tiny_tpch_catalog, tpch.q12().tables))
        for segment_id in tiny_tpch_catalog.segment_ids("lineitem"):
            tracker.prune_object(segment_id)
        assert not tracker_has_pending(tracker)
        assert _num_pending(tracker) == 0


class TestTrackerRejectsWhatIsNotItsOwn:
    """Ids and segments from outside the query raise ``QueryError`` — never
    an ``IndexError``/``KeyError``, and never a silent wrap-around."""

    @pytest.mark.parametrize("subplan_id", [-1, 10**9])
    def test_id_outside_the_subplan_space(self, q12_tracker, subplan_id):
        before = _num_pending(q12_tracker)
        with pytest.raises(QueryError):
            q12_tracker.mark_batch_executed(
                Batch([["orders.0"], ["lineitem.0"]], [subplan_id], b"\x01")
            )
        with pytest.raises(QueryError):
            q12_tracker.mark_batch_executed(
                Batch([["orders.0"], ["lineitem.0", "lineitem.1"]], [0, subplan_id], b"\x01\x01")
            )
        assert _num_pending(q12_tracker) == before

    def test_one_past_the_last_id(self, tiny_tpch_catalog, q12_tracker, q12_objects):
        last = (
            tiny_tpch_catalog.segment_ids("orders")[-1],
            tiny_tpch_catalog.segment_ids("lineitem")[-1],
        )
        total = q12_tracker.total_subplans
        with pytest.raises(QueryError, match=f"outside the query's {total} subplans"):
            q12_tracker.mark_batch_executed(Batch([[s] for s in last], [total], b"\x01"))
        pairs = pending_pairs(q12_tracker, q12_objects)
        assert [subplan_id for subplan_id, _ in pairs] == list(range(total))
        assert pairs[-1] == (total - 1, last)
        assert execute(q12_tracker, last) == total - 1
        assert pending_pairs(q12_tracker, q12_objects) == pairs[:-1]

    def test_segment_unknown_to_the_query(self, q12_tracker):
        for call in (
            lambda: q12_tracker.prune_object("customer.0"),
            lambda: q12_tracker.prune_object("nope"),
            lambda: q12_tracker.runnable_batch({"orders.0"}, "customer.0"),
            lambda: executable_counts(q12_tracker, {"orders.0"}, "customer.0"),
            lambda: q12_tracker.executable_tallies({"orders.0"}, "customer.0"),
        ):
            with pytest.raises(QueryError, match="belongs to no table of query"):
                call()
        # An arrival tells a foreign object from an exhausted one by this.
        assert q12_tracker.pending_count_of("customer.0") is None
        assert q12_tracker.pending_count_of("nation.99") is None
        # Counting a foreign object has an answer: no pending subplan.
        assert pending_counts(q12_tracker, ["customer.0"]) == {"customer.0": 0}
        # Foreign objects in the cache cover nothing and hide nothing.
        batch = q12_tracker.runnable_batch({"customer.0", "orders.0"}, "lineitem.0")
        assert batch.combinations() == [("orders.0", "lineitem.0")]

    @pytest.mark.parametrize("segment_id", ["customer.0", "nation.99"])
    def test_an_arrival_of_no_table_of_the_query_is_refused(self, tiny_tpch_catalog, segment_id):
        """Not taken for a duplicate: the arrival raises and counts nothing."""
        manager = MJoinStateManager(tpch.q12(), tiny_tpch_catalog, ObjectCache(4))
        segment = tiny_tpch_catalog.resolve_segment_id(segment_id.split(".")[0] + ".0")
        with pytest.raises(QueryError, match=f"{segment_id!r} belongs to no table"):
            manager.on_arrival(segment_id, segment)
        assert manager.stats == OperatorStats()
        assert not manager.cache.ids_view()
        assert _num_pending(manager.tracker) == manager.tracker.total_subplans

    def test_batch_with_a_non_pending_id_changes_nothing(self, q12_tracker, q12_objects):
        first, second = ("orders.0", "lineitem.0"), ("orders.0", "lineitem.1")
        first_id = execute(q12_tracker, first)
        second_id = sum(map(q12_tracker.offset_of, second))
        before = pending_counts(q12_tracker, q12_objects)
        lists = [["orders.0"], ["lineitem.0", "lineitem.1"]]
        stale = Batch(lists, [first_id, second_id], b"\x01\x01")
        with pytest.raises(QueryError, match=f"#{first_id} is not pending"):
            q12_tracker.mark_batch_executed(stale)
        assert q12_tracker.runnable_batch({"orders.0"}, "lineitem.1").num_pending == 1
        assert pending_counts(q12_tracker, q12_objects) == before
        assert q12_tracker.num_executed == 1
        # The same batch with the executed subplan flagged as the hole it is.
        q12_tracker.mark_batch_executed(Batch(lists, stale.ids, b"\x00\x01"))
        assert q12_tracker.runnable_batch({"orders.0"}, "lineitem.1").num_pending == 0
        assert q12_tracker.num_executed == 2

    def test_batch_holding_a_foreign_segment_changes_nothing(self, q12_tracker, q12_objects):
        before = pending_counts(q12_tracker, q12_objects)
        with pytest.raises(QueryError, match="'customer.0' belongs to no table"):
            q12_tracker.mark_batch_executed(Batch([["customer.0"], ["lineitem.0"]], [0], b"\x01"))
        assert _num_pending(q12_tracker) == q12_tracker.total_subplans
        assert pending_counts(q12_tracker, q12_objects) == before

    @pytest.mark.parametrize(
        "lists, ids, flags",
        [
            ([["orders.0"], ["lineitem.0", "lineitem.1"]], [0], b"\x01"),
            ([["orders.0"], ["lineitem.0"]], [0, 1], b"\x01"),
            ([["orders.0"], []], [0], b"\x01"),
        ],
    )
    def test_a_batch_is_one_id_and_one_flag_per_combination(self, lists, ids, flags):
        with pytest.raises(QueryError, match="a batch of . combinations got . ids and . flags"):
            Batch(lists, ids, flags)


class TestMintedBatchesAreTrustedUntilATransition:
    """``mark_batch_executed`` skips the pending check only for the batch the
    last ``runnable_batch`` returned, and only until the next transition."""

    def _state(self, tracker, objects):
        return (
            _num_pending(tracker),
            tracker.num_executed,
            tracker.num_pruned,
            pending_counts(tracker, objects),
        )

    def test_a_batch_minted_before_a_retire_raises(self, q12_tracker, q12_objects):
        stale = q12_tracker.runnable_batch({"orders.0", "orders.1"}, "lineitem.0")
        assert stale.num_pending == 2
        q12_tracker.mark_batch_executed(q12_tracker.runnable_batch({"orders.0"}, "lineitem.0"))
        before = self._state(q12_tracker, q12_objects)
        with pytest.raises(QueryError, match=f"#{stale.ids[0]} is not pending"):
            q12_tracker.mark_batch_executed(stale)
        assert self._state(q12_tracker, q12_objects) == before

    def test_a_retired_batch_marked_again_raises(self, q12_tracker, q12_objects):
        batch = q12_tracker.runnable_batch({"orders.0", "orders.1"}, "lineitem.2")
        q12_tracker.mark_batch_executed(batch)
        before = self._state(q12_tracker, q12_objects)
        with pytest.raises(QueryError, match="is not pending"):
            q12_tracker.mark_batch_executed(batch)
        assert self._state(q12_tracker, q12_objects) == before

    def test_a_batch_minted_before_a_prune_raises(self, q12_tracker, q12_objects):
        stale = q12_tracker.runnable_batch({"orders.0", "orders.1"}, "lineitem.1")
        q12_tracker.prune_object("orders.1")
        before = self._state(q12_tracker, q12_objects)
        with pytest.raises(QueryError, match=f"#{stale.ids[1]} is not pending"):
            q12_tracker.mark_batch_executed(stale)
        assert self._state(q12_tracker, q12_objects) == before

    def test_a_single_table_batch_minted_before_a_prune_raises(self, tiny_tpch_catalog):
        tracker = SubplanTracker(SubplanLayout(tpch.q6(), tiny_tpch_catalog, tpch.q6().tables))
        segment_id = tiny_tpch_catalog.segment_ids("lineitem")[1]
        stale = tracker.runnable_batch(set(), segment_id)
        assert tracker.prune_object(segment_id) == [1]
        with pytest.raises(QueryError, match="#1 is not pending"):
            tracker.mark_batch_executed(stale)
        assert (tracker.num_executed, tracker.num_pruned) == (0, 1)

    def test_a_hand_built_copy_is_checked(self, q12_tracker, q12_objects):
        minted = q12_tracker.runnable_batch({"orders.0", "orders.1"}, "lineitem.3")
        copy = Batch(minted.lists, minted.ids, minted.flags)
        q12_tracker.mark_batch_executed(copy)  # a valid copy passes the check
        before = self._state(q12_tracker, q12_objects)
        with pytest.raises(QueryError, match="is not pending"):
            q12_tracker.mark_batch_executed(minted)
        with pytest.raises(QueryError, match="is not pending"):
            q12_tracker.mark_batch_executed(Batch(minted.lists, minted.ids, minted.flags))
        assert self._state(q12_tracker, q12_objects) == before

    def test_an_earlier_batch_of_the_same_state_is_checked_and_passes(self, q12_tracker):
        first = q12_tracker.runnable_batch({"orders.0"}, "lineitem.0")
        second = q12_tracker.runnable_batch({"orders.1"}, "lineitem.1")
        q12_tracker.mark_batch_executed(first)
        q12_tracker.mark_batch_executed(second)
        assert q12_tracker.num_executed == 2


class TestRunnableComputation:
    def test_runnable_batch_requires_full_coverage(self, q12_tracker):
        runnable = q12_tracker.runnable_batch({"orders.0"}, "lineitem.0")
        assert runnable.num_pending == 1
        assert runnable.combinations() == [("orders.0", "lineitem.0")]
        assert q12_tracker.runnable_batch(set(), "lineitem.0").combinations() == []

    def test_runnable_batch_excludes_executed(self, q12_tracker):
        q12_tracker.mark_batch_executed(q12_tracker.runnable_batch({"orders.0"}, "lineitem.0"))
        runnable = q12_tracker.runnable_batch({"orders.0", "orders.1"}, "lineitem.0")
        # The executed combination is a hole of the larger batch.
        assert runnable.flags == b"\x00\x01"
        assert runnable.combinations() == [("orders.1", "lineitem.0")]

    def test_executable_counts_match_paper_example(self):
        """Recreate the worked example of Section 4.2.

        Cache = (A.1, B.1, A.2, C.3), arrivals already executed
        <A.1,B.1,C.3> and <A.2,B.1,C.3>, new object C.1.  Executable counts
        must be 1 for A.1 and A.2, 2 for B.1 and 0 for C.3, so the maximal
        progress policy evicts C.3.
        """
        from repro.engine import Catalog, Column, DataType, Relation, TableSchema
        from repro.engine.query import AggregateSpec, JoinCondition, Query

        catalog = Catalog()
        specs = {"a": ("a_key", 2), "b": ("b_key", 2), "c": ("c_key", 2)}
        for table, (column, segments) in specs.items():
            schema = TableSchema(table, [Column(column, DataType.INTEGER)])
            rows = [{column: index} for index in range(segments)]
            catalog.register(Relation.from_rows(schema, rows, rows_per_segment=1))
        query = Query(
            name="abc",
            tables=["a", "b", "c"],
            joins=[
                JoinCondition("a", "a_key", "b", "b_key"),
                JoinCondition("b", "b_key", "c", "c_key"),
            ],
            group_by=[],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        tracker = SubplanTracker(SubplanLayout(query, catalog, ["a", "b", "c"]))
        # Map the paper's names onto segment ids: X.1 -> x.0, X.2/X.3 -> x.1.
        for combination in [("a.0", "b.0", "c.1"), ("a.1", "b.0", "c.1")]:
            execute(tracker, combination)
        cache = {"a.0", "b.0", "a.1", "c.1"}
        counts = executable_counts(tracker, cache, "c.0")
        assert counts["a.0"] == 1
        assert counts["a.1"] == 1
        assert counts["b.0"] == 2
        assert counts["c.1"] == 0
        # The one-pass policy reads the same numbers off the batch's tallies.
        tallies = tracker.executable_tallies(cache, "c.0")
        assert {segment_id: tallies.get(segment_id, 0) for segment_id in sorted(cache)} == counts
