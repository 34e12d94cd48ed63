"""Unit tests for subplan enumeration and tracking."""

import pytest

from repro.core.subplan import Batch, Subplan, SubplanTracker, enumerate_subplans
from repro.exceptions import QueryError
from repro.workloads import tpch


@pytest.fixture()
def q12_tracker(tiny_tpch_catalog):
    return SubplanTracker(tpch.q12(), tiny_tpch_catalog)


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
        assert q12_tracker.num_pending == expected

    def test_q5_subplans_product(self, tiny_tpch_catalog):
        tracker = SubplanTracker(tpch.q5(), tiny_tpch_catalog)
        expected = 1
        for table in tpch.q5().tables:
            expected *= tiny_tpch_catalog.num_segments(table)
        assert tracker.total_subplans == expected

    def test_table_order_must_cover_query(self, tiny_tpch_catalog):
        with pytest.raises(QueryError):
            SubplanTracker(tpch.q12(), tiny_tpch_catalog, table_order=["orders"])


class TestTrackerTransitions:
    def test_mark_executed_moves_state(self, q12_tracker):
        subplan = q12_tracker.pending_subplans()[0]
        q12_tracker.mark_executed(subplan)
        assert q12_tracker.num_executed == 1
        assert not q12_tracker.is_pending(subplan)
        with pytest.raises(QueryError):
            q12_tracker.mark_executed(subplan)

    def test_pending_count_for_object(self, tiny_tpch_catalog, q12_tracker):
        lineitem_segments = tiny_tpch_catalog.num_segments("lineitem")
        orders_segments = tiny_tpch_catalog.num_segments("orders")
        assert q12_tracker.pending_count_for("orders.0") == lineitem_segments
        assert q12_tracker.pending_count_for("lineitem.0") == orders_segments
        assert q12_tracker.pending_count_for("unknown.0") == 0

    def test_prune_object_discards_its_subplans(self, tiny_tpch_catalog, q12_tracker):
        before = q12_tracker.num_pending
        pruned = q12_tracker.prune_object("lineitem.0")
        assert len(pruned) == tiny_tpch_catalog.num_segments("orders")
        assert q12_tracker.num_pending == before - len(pruned)
        assert q12_tracker.num_pruned == len(pruned)
        assert q12_tracker.pending_count_for("lineitem.0") == 0

    def test_objects_needed_shrinks_as_subplans_finish(self, q12_tracker):
        assert "lineitem.0" in q12_tracker.objects_needed()
        q12_tracker.prune_object("lineitem.0")
        assert "lineitem.0" not in q12_tracker.objects_needed()

    def test_has_pending_goes_false_when_everything_handled(self, tiny_tpch_catalog):
        tracker = SubplanTracker(tpch.q12(), tiny_tpch_catalog)
        for segment_id in tiny_tpch_catalog.segment_ids("lineitem"):
            tracker.prune_object(segment_id)
        assert not tracker.has_pending()
        assert tracker.num_pending == 0


class TestTrackerRejectsWhatIsNotItsOwn:
    """Ids and segments from outside the query raise ``QueryError`` — never
    an ``IndexError``/``KeyError``, and never a silent wrap-around."""

    @pytest.mark.parametrize("subplan_id", [-1, 10**9])
    def test_id_outside_the_subplan_space(self, q12_tracker, subplan_id):
        before = q12_tracker.num_pending
        with pytest.raises(QueryError):
            q12_tracker.subplan(subplan_id)
        with pytest.raises(QueryError):
            q12_tracker.mark_executed(Subplan(subplan_id, ("orders.0", "lineitem.0")))
        with pytest.raises(QueryError):
            q12_tracker.mark_batch_executed(
                Batch([["orders.0"], ["lineitem.0", "lineitem.1"]], [0, subplan_id], b"\x01\x01")
            )
        assert not q12_tracker.is_pending(Subplan(subplan_id, ()))
        assert q12_tracker.num_pending == before

    def test_one_past_the_last_id(self, q12_tracker):
        with pytest.raises(QueryError):
            q12_tracker.subplan(q12_tracker.total_subplans)
        last = q12_tracker.subplan(q12_tracker.total_subplans - 1)
        assert last.segments == q12_tracker.pending_subplans()[-1].segments

    def test_segment_unknown_to_the_query(self, q12_tracker):
        for call in (
            lambda: q12_tracker.prune_object("customer.0"),
            lambda: q12_tracker.prune_object_ids("nope"),
            lambda: q12_tracker.runnable_batch({"orders.0"}, "customer.0"),
            lambda: q12_tracker.newly_runnable({"orders.0"}, "customer.0"),
            lambda: q12_tracker.executable_counts({"orders.0"}, "customer.0"),
        ):
            with pytest.raises(QueryError):
                call()
        # Counting questions about a foreign object have an answer: none.
        assert not q12_tracker.object_in_pending("customer.0")
        assert q12_tracker.pending_counts(["customer.0"]) == {"customer.0": 0}
        # Foreign objects in the cache cover nothing and hide nothing.
        assert len(q12_tracker.newly_runnable({"customer.0", "orders.0"}, "lineitem.0")) == 1

    def test_batch_with_a_non_pending_id_changes_nothing(self, q12_tracker):
        first, second = q12_tracker.pending_subplans()[:2]
        q12_tracker.mark_executed(first)
        before = q12_tracker.pending_counts(q12_tracker.objects())
        assert first.segments[0] == second.segments[0]
        lists = [[first.segments[0]], [first.segments[1], second.segments[1]]]
        stale = Batch(lists, [first.subplan_id, second.subplan_id], b"\x01\x01")
        with pytest.raises(QueryError, match=f"#{first.subplan_id} is not pending"):
            q12_tracker.mark_batch_executed(stale)
        assert q12_tracker.is_pending(second)
        assert q12_tracker.pending_counts(q12_tracker.objects()) == before
        assert q12_tracker.num_executed == 1
        # The same batch with the executed subplan flagged as the hole it is.
        q12_tracker.mark_batch_executed(Batch(lists, stale.ids, b"\x00\x01"))
        assert not q12_tracker.is_pending(second)
        assert q12_tracker.num_executed == 2

    def test_batch_holding_a_foreign_segment_changes_nothing(self, q12_tracker):
        before = q12_tracker.pending_counts(q12_tracker.objects())
        with pytest.raises(QueryError, match="'customer.0' belongs to no table"):
            q12_tracker.mark_batch_executed(Batch([["customer.0"], ["lineitem.0"]], [0], b"\x01"))
        assert q12_tracker.num_pending == q12_tracker.total_subplans
        assert q12_tracker.pending_counts(q12_tracker.objects()) == before

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


class TestRunnableComputation:
    def test_newly_runnable_requires_full_coverage(self, q12_tracker):
        runnable = q12_tracker.newly_runnable({"orders.0"}, "lineitem.0")
        assert len(runnable) == 1
        assert set(runnable[0].segments) == {"orders.0", "lineitem.0"}
        assert q12_tracker.newly_runnable(set(), "lineitem.0") == []

    def test_newly_runnable_excludes_executed(self, q12_tracker):
        runnable = q12_tracker.newly_runnable({"orders.0"}, "lineitem.0")
        q12_tracker.mark_executed(runnable[0])
        assert q12_tracker.newly_runnable({"orders.0"}, "lineitem.0") == []

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
        tracker = SubplanTracker(query, catalog, table_order=["a", "b", "c"])
        # Map the paper's names onto segment ids: X.1 -> x.0, X.2/X.3 -> x.1.
        executed = [("a.0", "b.0", "c.1"), ("a.1", "b.0", "c.1")]
        for combination in executed:
            for subplan in tracker.pending_subplans():
                if set(subplan.segments) == set(combination):
                    tracker.mark_executed(subplan)
                    break
        cache = {"a.0", "b.0", "a.1", "c.1"}
        counts = tracker.executable_counts(cache, "c.0")
        assert counts["a.0"] == 1
        assert counts["a.1"] == 1
        assert counts["b.0"] == 2
        assert counts["c.1"] == 0
