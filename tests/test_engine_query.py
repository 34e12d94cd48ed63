"""Unit tests for the query specification and its validation."""

import pytest

from repro.engine.predicate import col, eq
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.exceptions import QueryError
from repro.workloads import tpch


def _simple_query(**overrides):
    parameters = dict(
        name="q",
        tables=["orders", "lineitem"],
        joins=[JoinCondition("lineitem", "l_orderkey", "orders", "o_orderkey")],
        group_by=["l_shipmode"],
        aggregates=[AggregateSpec("count", None, "cnt")],
    )
    parameters.update(overrides)
    return Query(**parameters)


class TestJoinCondition:
    def test_involves_and_other(self):
        join = JoinCondition("a", "a_id", "b", "b_id")
        assert join.involves("a") and join.involves("b") and not join.involves("c")
        assert join.other("a") == "b"
        assert join.column_for("b") == "b_id"
        with pytest.raises(QueryError):
            join.other("c")
        with pytest.raises(QueryError):
            join.column_for("c")


class TestAggregateSpec:
    def test_count_without_expression_is_valid(self):
        AggregateSpec("count", None, "cnt")

    def test_sum_requires_expression(self):
        with pytest.raises(QueryError):
            AggregateSpec("sum", None, "total")

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError):
            AggregateSpec("median", col("x"), "m")

    def test_alias_required(self):
        with pytest.raises(QueryError):
            AggregateSpec("count", None, "")


class TestQueryConstruction:
    def test_duplicate_tables_rejected(self):
        with pytest.raises(QueryError):
            _simple_query(tables=["orders", "orders"])

    def test_join_must_reference_listed_tables(self):
        with pytest.raises(QueryError):
            _simple_query(joins=[JoinCondition("lineitem", "l_orderkey", "part", "p_partkey")])

    def test_filter_table_must_be_listed(self):
        with pytest.raises(QueryError):
            _simple_query(filters={"part": eq("p_brand", "Brand#1")})

    def test_query_needs_output(self):
        with pytest.raises(QueryError):
            _simple_query(group_by=[], aggregates=[])

    def test_limit_must_be_positive(self):
        with pytest.raises(QueryError):
            _simple_query(limit=0)

    def test_limit_needs_every_group_by_column_ordered(self, tiny_tpch_catalog):
        """Which groups are "the first n" must not depend on the order the
        executor met them in — under MJoin that is the device's schedule."""
        grouped = dict(group_by=["l_shipmode", "o_orderpriority"], limit=3)
        for order_by in ([], ["l_shipmode"], ["cnt"]):
            with pytest.raises(QueryError, match="LIMIT needs a total order"):
                _simple_query(order_by=order_by, **grouped).validate(tiny_tpch_catalog)
        _simple_query(
            order_by=["cnt", "o_orderpriority", "l_shipmode"], **grouped
        ).validate(tiny_tpch_catalog)
        # Without a LIMIT any order will do, and a global aggregate is one row.
        _simple_query(group_by=grouped["group_by"]).validate(tiny_tpch_catalog)
        _simple_query(group_by=[], limit=1).validate(tiny_tpch_catalog)

    def test_join_graph_and_connectivity(self):
        query = _simple_query()
        graph = query.join_graph()
        assert graph["orders"] == {"lineitem"}
        assert query.is_connected()

    def test_disconnected_join_graph(self):
        query = Query(
            name="disconnected",
            tables=["orders", "lineitem", "part"],
            joins=[JoinCondition("lineitem", "l_orderkey", "orders", "o_orderkey")],
            group_by=["l_shipmode"],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        assert not query.is_connected()


class TestQueryValidation:
    def test_paper_queries_validate(self, tiny_tpch_catalog):
        for name in tpch.QUERIES:
            tpch.query(name).validate(tiny_tpch_catalog)

    def test_unknown_table_rejected(self, tiny_tpch_catalog):
        query = Query(
            name="bad",
            tables=["nonexistent"],
            group_by=[],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        with pytest.raises(QueryError):
            query.validate(tiny_tpch_catalog)

    def test_unknown_join_column_rejected(self, tiny_tpch_catalog):
        query = _simple_query(
            joins=[JoinCondition("lineitem", "l_missing", "orders", "o_orderkey")]
        )
        with pytest.raises(QueryError):
            query.validate(tiny_tpch_catalog)

    def test_unknown_filter_column_rejected(self, tiny_tpch_catalog):
        query = _simple_query(filters={"orders": eq("o_missing", 1)})
        with pytest.raises(QueryError):
            query.validate(tiny_tpch_catalog)

    def test_unknown_group_by_rejected(self, tiny_tpch_catalog):
        query = _simple_query(group_by=["not_a_column"])
        with pytest.raises(QueryError):
            query.validate(tiny_tpch_catalog)

    def test_disconnected_query_rejected(self, tiny_tpch_catalog):
        query = Query(
            name="disconnected",
            tables=["orders", "lineitem", "part"],
            joins=[JoinCondition("lineitem", "l_orderkey", "orders", "o_orderkey")],
            group_by=["l_shipmode"],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        with pytest.raises(QueryError):
            query.validate(tiny_tpch_catalog)

    def test_order_by_must_be_produced(self, tiny_tpch_catalog):
        query = _simple_query(order_by=["o_orderdate"])
        with pytest.raises(QueryError):
            query.validate(tiny_tpch_catalog)

    def test_joins_with_any(self):
        query = tpch.q5()
        pairs = query.joins_with_any("supplier", {"lineitem", "customer"})
        other_tables = {other for _cond, other in pairs}
        assert other_tables == {"lineitem", "customer"}
        assert query.joins_with_any("nation", {"region"})
