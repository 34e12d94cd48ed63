"""Unit tests for the n-ary join and the MJoin state manager.

The state manager is exercised without the simulator: object arrivals are
fed directly in scripted orders and the outcome is compared against the
in-memory executor — the core correctness property of out-of-order execution.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import MaxProgressEviction, ObjectCache
from repro.core.mjoin import MJoinStateManager
from repro.core.njoin import NAryJoin, PreparedSegment, prepare_segment
from repro.engine import Column, DataType, InMemoryExecutor, Planner, Relation, TableSchema
from repro.engine.executor import canonical_rows
from repro.engine.operators import HashJoin, SequentialScan
from repro.engine.operators.base import OperatorStats
from repro.engine.planner import JoinStep, QueryPlan
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.exceptions import CacheError, ExecutionError
from repro.workloads import tpch


def _expected_rows(catalog, query):
    return canonical_rows(InMemoryExecutor(catalog).execute(query).rows)


def _all_segment_ids(catalog, query):
    ids = []
    for table in query.tables:
        ids.extend(catalog.segment_ids(table))
    return ids


def _run_state_manager(catalog, query, cache_capacity, arrival_order=None, enable_pruning=True):
    cache = ObjectCache(cache_capacity, policy=MaxProgressEviction())
    manager = MJoinStateManager(query, catalog, cache, enable_pruning=enable_pruning)
    requests = manager.initial_requests()
    if arrival_order is not None:
        requests = list(arrival_order)
    while requests:
        for segment_id in requests:
            manager.on_arrival(segment_id, catalog.resolve_segment_id(segment_id))
        requests = manager.next_cycle_requests()
    return manager


class TestPreparedSegment:
    def test_filtering_and_hash_tables(self, tiny_tpch_catalog):
        query = tpch.q12()
        segment = tiny_tpch_catalog.segment("lineitem", 0)
        prepared = prepare_segment(segment, query.filter_for("lineitem"))
        assert prepared.num_rows <= segment.num_rows
        table = prepared.hash_table(("l_orderkey",))
        assert sum(len(rows) for rows in table.values()) == prepared.num_rows
        # The hash table is memoised.
        assert prepared.hash_table(("l_orderkey",)) is table


class TestNAryJoin:
    def test_single_subplan_matches_filtered_join(self, tiny_tpch_catalog):
        query = tpch.q12()
        plan = Planner(tiny_tpch_catalog).plan(query)
        njoin = NAryJoin(query, plan)
        segments = {
            "lineitem": prepare_segment(
                tiny_tpch_catalog.segment("lineitem", 0), query.filter_for("lineitem")
            ),
            "orders": prepare_segment(
                tiny_tpch_catalog.segment("orders", 0), query.filter_for("orders")
            ),
        }
        stats = OperatorStats()
        rows = njoin.execute(segments, stats)
        order_keys = {row["o_orderkey"] for row in segments["orders"].rows}
        expected = [
            row for row in segments["lineitem"].rows if row["l_orderkey"] in order_keys
        ]
        assert len(rows) == len(expected)
        assert stats.tuples_probed == segments["lineitem"].num_rows

    def test_union_over_all_subplans_equals_full_join(self, tiny_tpch_catalog):
        query = tpch.q12()
        plan = Planner(tiny_tpch_catalog).plan(query)
        njoin = NAryJoin(query, plan)
        total = 0
        for orders_segment in tiny_tpch_catalog.relation("orders").segments:
            for lineitem_segment in tiny_tpch_catalog.relation("lineitem").segments:
                segments = {
                    "orders": prepare_segment(orders_segment, query.filter_for("orders")),
                    "lineitem": prepare_segment(lineitem_segment, query.filter_for("lineitem")),
                }
                total += len(njoin.execute(segments))
        in_memory = InMemoryExecutor(tiny_tpch_catalog).execute(query)
        assert total == sum(row["line_count"] for row in in_memory.rows)

    def test_missing_segment_rejected(self, tiny_tpch_catalog):
        query = tpch.q12()
        plan = Planner(tiny_tpch_catalog).plan(query)
        njoin = NAryJoin(query, plan)
        with pytest.raises(ExecutionError):
            njoin.execute({})
        with pytest.raises(ExecutionError):
            njoin.execute_ordered([])


def _pair_njoin(build_keys, probe_keys):
    """An ``NAryJoin`` streaming table ``p`` against a hash table on ``b``."""
    query = Query(
        name="pair",
        tables=["p", "b"],
        joins=[JoinCondition("p", pk, "b", bk) for pk, bk in zip(probe_keys, build_keys)],
        aggregates=[AggregateSpec("count", None, "cnt")],
    )
    return NAryJoin(query, QueryPlan(query, [JoinStep("p"), JoinStep("b", list(query.joins))]))


def _pair_rows(build_rows, probe_rows, build_keys, probe_keys, stats=None):
    return _pair_njoin(build_keys, probe_keys).execute_ordered(
        [PreparedSegment("p.0", "p", probe_rows), PreparedSegment("b.0", "b", build_rows)], stats
    )


class TestSharedKernel:
    """``NAryJoin`` joins through the pull-based engine's build/probe kernel."""

    def test_null_keys_never_match(self):
        build = [{"bk": None, "bv": 1}, {"bk": 7, "bv": 2}]
        probe = [{"pk": None, "pv": 3}, {"pk": 7, "pv": 4}]
        stats = OperatorStats()
        assert _pair_rows(build, probe, ["bk"], ["pk"], stats) == [
            {"bk": 7, "bv": 2, "pk": 7, "pv": 4}
        ]
        assert (stats.tuples_probed, stats.tuples_output) == (2, 1)

    def test_null_component_of_a_multi_column_key_never_matches(self):
        build = [{"b1": 1, "b2": None}, {"b1": None, "b2": 2}, {"b1": 1, "b2": 2}]
        probe = [{"p1": 1, "p2": None}, {"p1": None, "p2": 2}, {"p1": 1, "p2": 2}]
        assert _pair_rows(build, probe, ["b1", "b2"], ["p1", "p2"]) == [
            {"b1": 1, "b2": 2, "p1": 1, "p2": 2}
        ]

    @pytest.mark.parametrize(
        "build_keys, probe_keys",
        [(["nope"], ["pk"]), (["bk"], ["nope"]), (["bk", "nope"], ["pk", "pv"])],
    )
    def test_missing_key_column_is_an_execution_error(self, build_keys, probe_keys):
        with pytest.raises(ExecutionError, match="join key column missing.*nope"):
            _pair_rows([{"bk": 1, "bv": 1}], [{"pk": 1, "pv": 1}], build_keys, probe_keys)


    def test_plan_step_without_a_join_condition_is_rejected(self):
        """The kernel joins on at least one column; a cross-product step is
        refused when the join is built, not deep inside a probe."""
        query = Query(
            name="pair",
            tables=["p", "b"],
            joins=[JoinCondition("p", "pk", "b", "bk")],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        with pytest.raises(ExecutionError, match="needs a join condition"):
            NAryJoin(query, QueryPlan(query, [JoinStep("p"), JoinStep("b")]))


def _nested_loop_join(build_rows, probe_rows, build_keys, probe_keys):
    """The reference: probe order, then build order, NULL equal to nothing."""
    return [
        {**build_row, **probe_row}
        for probe_row in probe_rows
        for build_row in build_rows
        if all(
            build_row[bk] is not None and build_row[bk] == probe_row[pk]
            for bk, pk in zip(build_keys, probe_keys)
        )
    ]


_KEYS = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
# Multiples of 2**-10: sums over any join output are exact (see
# test_core_arrival_properties), so a downstream float ``sum`` cannot mask a
# reordering as rounding noise.
_VALUES = st.integers(min_value=-(2**20), max_value=2**20).map(lambda n: n / 1024.0)


def _side(prefix):
    return st.lists(
        st.tuples(_KEYS, _KEYS, _VALUES).map(
            lambda row: {f"{prefix}1": row[0], f"{prefix}2": row[1], f"{prefix}v": row[2]}
        ),
        max_size=8,
    )


class TestJoinKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        build_rows=_side("b"),
        probe_rows=_side("p"),
        width=st.integers(min_value=1, max_value=2),
        rows_per_segment=st.integers(min_value=1, max_value=3),
    )
    def test_hash_join_and_nary_join_equal_the_nested_loop(
        self, build_rows, probe_rows, width, rows_per_segment
    ):
        build_keys, probe_keys = ["b1", "b2"][:width], ["p1", "p2"][:width]
        expected = _nested_loop_join(build_rows, probe_rows, build_keys, probe_keys)

        def scan(prefix, rows):
            schema = TableSchema(
                prefix,
                [Column(f"{prefix}{suffix}", DataType.FLOAT) for suffix in ("1", "2", "v")],
            )
            return SequentialScan(Relation.from_rows(schema, rows, rows_per_segment))

        join = HashJoin(scan("b", build_rows), scan("p", probe_rows), build_keys, probe_keys)
        assert join.rows() == expected  # same rows, same order
        assert join.stats == OperatorStats(
            tuples_built=len(build_rows),
            tuples_probed=len(probe_rows),
            tuples_output=len(expected),
        )
        # One kernel, two callers.
        assert _pair_rows(build_rows, probe_rows, build_keys, probe_keys) == expected


class TestMJoinStateManager:
    def test_cache_must_hold_one_object_per_table(self, tiny_tpch_catalog):
        with pytest.raises(CacheError):
            MJoinStateManager(tpch.q5(), tiny_tpch_catalog, ObjectCache(3))

    def test_initial_requests_cover_all_needed_objects(self, tiny_tpch_catalog):
        manager = MJoinStateManager(tpch.q12(), tiny_tpch_catalog, ObjectCache(10))
        assert sorted(manager.initial_requests()) == sorted(
            _all_segment_ids(tiny_tpch_catalog, tpch.q12())
        )

    @pytest.mark.parametrize("cache_capacity", [2, 3, 6, 100])
    def test_in_order_arrival_matches_in_memory(self, tiny_tpch_catalog, cache_capacity):
        query = tpch.q12()
        manager = _run_state_manager(tiny_tpch_catalog, query, cache_capacity)
        assert canonical_rows(manager.results()) == _expected_rows(tiny_tpch_catalog, query)
        assert manager.is_complete()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_arrival_order_matches_in_memory(self, tiny_tpch_catalog, seed):
        query = tpch.q12()
        order = _all_segment_ids(tiny_tpch_catalog, query)
        random.Random(seed).shuffle(order)
        manager = _run_state_manager(tiny_tpch_catalog, query, cache_capacity=3, arrival_order=order)
        assert canonical_rows(manager.results()) == _expected_rows(tiny_tpch_catalog, query)

    def test_six_table_join_matches_in_memory(self, tiny_tpch_catalog):
        query = tpch.q5()
        manager = _run_state_manager(tiny_tpch_catalog, query, cache_capacity=7)
        assert canonical_rows(manager.results()) == _expected_rows(tiny_tpch_catalog, query)

    def test_reissues_happen_at_small_cache(self, tiny_tpch_catalog):
        query = tpch.q12()
        manager = _run_state_manager(tiny_tpch_catalog, query, cache_capacity=2)
        total_segments = len(_all_segment_ids(tiny_tpch_catalog, query))
        assert manager.total_arrivals > total_segments
        assert manager.cycles_completed >= 2

    def test_large_cache_needs_single_cycle(self, tiny_tpch_catalog):
        query = tpch.q12()
        manager = _run_state_manager(tiny_tpch_catalog, query, cache_capacity=100)
        total_segments = len(_all_segment_ids(tiny_tpch_catalog, query))
        assert manager.total_arrivals == total_segments
        assert manager.cache.num_evictions == 0

    def test_duplicate_arrival_is_ignored(self, tiny_tpch_catalog):
        query = tpch.q12()
        cache = ObjectCache(10)
        manager = MJoinStateManager(query, tiny_tpch_catalog, cache)
        segment = tiny_tpch_catalog.resolve_segment_id("orders.0")
        first = manager.on_arrival("orders.0", segment)
        second = manager.on_arrival("orders.0", segment)
        assert first.cached
        assert not second.cached

    def test_pruning_discards_empty_objects(self, tiny_tpch_catalog):
        from repro.engine.predicate import Comparison, Literal, col
        from repro.engine.query import Query

        base = tpch.q12()
        selective = Query(
            name="selective",
            tables=base.tables,
            joins=base.joins,
            filters={"lineitem": Comparison("<", col("l_orderkey"), Literal(-1))},
            group_by=base.group_by,
            aggregates=base.aggregates,
        )
        manager = _run_state_manager(tiny_tpch_catalog, selective, cache_capacity=4)
        assert manager.results() == []
        assert manager.tracker.num_pruned > 0
        # Every lineitem object is empty under the filter, so nothing was
        # ever re-requested and no join was executed.
        assert manager.tracker.num_executed == 0

    def test_pruning_off_executes_empty_subplans(self, tiny_tpch_catalog):
        from repro.engine.predicate import Comparison, Literal, col
        from repro.engine.query import Query

        base = tpch.q12()
        selective = Query(
            name="selective",
            tables=base.tables,
            joins=base.joins,
            filters={"lineitem": Comparison("<", col("l_orderkey"), Literal(-1))},
            group_by=base.group_by,
            aggregates=base.aggregates,
        )
        manager = _run_state_manager(
            tiny_tpch_catalog, selective, cache_capacity=4, enable_pruning=False
        )
        assert manager.results() == []
        assert manager.tracker.num_pruned == 0
        assert manager.tracker.num_executed == manager.tracker.total_subplans

    def test_work_counters_accumulate(self, tiny_tpch_catalog):
        manager = _run_state_manager(tiny_tpch_catalog, tpch.q12(), cache_capacity=6)
        assert manager.stats.tuples_scanned > 0
        assert manager.stats.tuples_built > 0
        assert manager.stats.tuples_probed > 0
