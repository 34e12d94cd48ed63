"""Unit tests for the planner, the in-memory executor and the cost model."""

from dataclasses import astuple
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st
from predicate_oracle import evaluate

from repro.engine import Catalog, CostModel, InMemoryExecutor, Planner
from repro.exceptions import ConfigurationError, QueryError
from repro.engine.executor import canonical_rows
from repro.engine.operators.base import OperatorStats
from repro.engine.query import AggregateSpec, Query
from repro.workloads import ssb, tpch


# (scanned, built, probed, output) of every registered TPC-H and SSB query at
# seed 42, as measured on the per-row iterator engine the batch engine replaced.
_PINNED_STATS = [
    (tpch, "tiny", "q1", (321, 0, 0, 167)),
    (tpch, "tiny", "q3", (224, 37, 58, 95)),
    (tpch, "tiny", "q5", (268, 81, 380, 469)),
    (tpch, "tiny", "q6", (183, 0, 0, 24)),
    (tpch, "tiny", "q12", (214, 48, 4, 60)),
    (tpch, "small", "q1", (1432, 0, 0, 718)),
    (tpch, "small", "q3", (941, 106, 350, 472)),
    (tpch, "small", "q5", (993, 175, 1648, 1849)),
    (tpch, "small", "q6", (819, 0, 0, 100)),
    (tpch, "small", "q12", (905, 160, 23, 210)),
    (ssb, "tiny", "q1_1", (193, 4, 49, 63)),
    (ssb, "tiny", "q2_1", (204, 27, 366, 393)),
    (ssb, "tiny", "q3_1", (216, 25, 304, 341)),
    (ssb, "small", "q1_1", (671, 7, 166, 197)),
    (ssb, "small", "q2_1", (758, 57, 1347, 1504)),
    (ssb, "small", "q3_1", (727, 50, 1217, 1316)),
]


@lru_cache(maxsize=None)
def _catalog(workload, scale):
    return workload.build_catalog(scale, seed=42, catalog=Catalog())


class TestPlanner:
    def test_single_table_plan(self, tiny_tpch_catalog):
        plan = Planner(tiny_tpch_catalog).plan(tpch.q1())
        assert plan.join_order == ["lineitem"]
        assert plan.table_access_order() == ["lineitem"]

    def test_join_order_streams_largest_table(self, tiny_tpch_catalog):
        plan = Planner(tiny_tpch_catalog).plan(tpch.q12())
        assert plan.join_order[0] == "lineitem"
        assert set(plan.join_order) == {"lineitem", "orders"}

    def test_join_order_is_connected_prefix(self, tiny_tpch_catalog):
        plan = Planner(tiny_tpch_catalog).plan(tpch.q5())
        query = tpch.q5()
        joined = {plan.join_order[0]}
        for step in plan.steps[1:]:
            assert step.conditions, f"step for {step.table} has no join conditions"
            for condition in step.conditions:
                assert condition.other(step.table) in joined
            joined.add(step.table)

    def test_access_order_reads_build_tables_first(self, tiny_tpch_catalog):
        catalog = tiny_tpch_catalog
        plan = Planner(catalog).plan(tpch.q12())
        order = plan.segment_access_order(catalog)
        # All orders segments come before any lineitem segment (pull-based
        # plans materialise the build side first, then stream the fact table).
        first_lineitem = order.index("lineitem.0")
        assert all("orders" in segment for segment in order[:first_lineitem])
        assert len(order) == catalog.num_segments("orders") + catalog.num_segments("lineitem")

    def test_each_tables_segments_are_consecutive(self, tiny_tpch_catalog):
        plan = Planner(tiny_tpch_catalog).plan(tpch.q5())
        order = plan.segment_access_order(tiny_tpch_catalog)
        tables_in_order = [segment.rsplit(".", 1)[0] for segment in order]
        seen = []
        for table in tables_in_order:
            if not seen or seen[-1] != table:
                seen.append(table)
        assert len(seen) == len(set(seen)), "a table's segments were interleaved"

    def test_disconnected_query_raises(self, tiny_tpch_catalog):
        query = Query(
            name="cross-product",
            tables=["orders", "part"],
            joins=[],
            group_by=["p_brand"],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        with pytest.raises(QueryError):
            Planner(tiny_tpch_catalog).plan(query)

    def test_plan_is_deterministic(self, tiny_tpch_catalog):
        planner = Planner(tiny_tpch_catalog)
        assert planner.plan(tpch.q5()).join_order == planner.plan(tpch.q5()).join_order


class TestInMemoryExecutor:
    @pytest.mark.parametrize("query_name", sorted(tpch.QUERIES))
    def test_queries_run_and_produce_rows(self, small_tpch_catalog, query_name):
        executor = InMemoryExecutor(small_tpch_catalog)
        result = executor.execute(tpch.query(query_name))
        assert result.rows
        assert result.stats.tuples_scanned > 0

    @pytest.mark.parametrize("workload, scale, query_name, counters", _PINNED_STATS)
    def test_operator_stats_are_pinned(self, workload, scale, query_name, counters):
        """The counters feed ``CostModel``, hence every simulated time."""
        result = InMemoryExecutor(_catalog(workload, scale)).execute(workload.query(query_name))
        assert astuple(result.stats) == counters

    def test_every_registered_query_is_pinned(self):
        pinned = {(workload, name) for workload, _scale, name, _counters in _PINNED_STATS}
        assert pinned == {(w, name) for w in (tpch, ssb) for name in w.QUERIES}

    def test_q12_counts_match_manual_computation(self, tiny_tpch_catalog):
        executor = InMemoryExecutor(tiny_tpch_catalog)
        result = executor.execute(tpch.q12())
        query = tpch.q12()
        lineitem = [
            row
            for segment in tiny_tpch_catalog.relation("lineitem").segments
            for row in segment.rows
        ]
        orders = {
            row["o_orderkey"]
            for segment in tiny_tpch_catalog.relation("orders").segments
            for row in segment.rows
        }
        predicate = query.filter_for("lineitem")
        expected = {}
        for row in lineitem:
            if evaluate(predicate, row) and row["l_orderkey"] in orders:
                expected[row["l_shipmode"]] = expected.get(row["l_shipmode"], 0) + 1
        observed = {row["l_shipmode"]: row["line_count"] for row in result.rows}
        assert observed == expected

    def test_execution_is_deterministic(self, tiny_tpch_catalog):
        executor = InMemoryExecutor(tiny_tpch_catalog)
        first = executor.execute(tpch.q5())
        second = executor.execute(tpch.q5())
        assert canonical_rows(first.rows) == canonical_rows(second.rows)

    def test_order_by_is_respected(self, tiny_tpch_catalog):
        result = InMemoryExecutor(tiny_tpch_catalog).execute(tpch.q1())
        keys = [(row["l_returnflag"], row["l_linestatus"]) for row in result.rows]
        assert keys == sorted(keys)


class TestCostModel:
    def test_costs_scale_linearly(self):
        model = CostModel()
        assert model.scan_time(200) == pytest.approx(2 * model.scan_time(100))
        assert model.request_overhead(10) == pytest.approx(10 * model.request_overhead_seconds)

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(scan_seconds_per_tuple=-1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_infinite_or_nan_costs_rejected(self, value):
        """A scan-only charge leaves ``cpu_time``'s zero terms out, which is
        exact only when ``rate * 0`` is 0: an infinite rate makes it NaN."""
        for name in ("build_seconds_per_tuple", "tuple_scale"):
            with pytest.raises(ConfigurationError, match="finite"):
                CostModel(**{name: value})

    def test_processing_time_uses_stats(self, tiny_tpch_catalog):
        result = InMemoryExecutor(tiny_tpch_catalog).execute(tpch.q12())
        assert CostModel().cpu_time(result.stats) > 0.0

    @given(
        rates=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        scale=st.floats(0.0, 1000.0),
        counts=st.lists(st.integers(0, 10**7), min_size=4, max_size=4),
    )
    def test_cpu_time_is_the_sum_of_its_components_bit_for_bit(self, rates, scale, counts):
        """``cpu_time`` spells the four component methods out inline; the
        simulated clock (and every golden) needs the very same float."""
        model = CostModel(*rates, tuple_scale=scale)
        stats = OperatorStats(*counts)
        assert model.cpu_time(stats) == (
            model.scan_time(stats.tuples_scanned)
            + model.build_time(stats.tuples_built)
            + model.probe_time(stats.tuples_probed)
            + model.output_time(stats.tuples_output)
        )
