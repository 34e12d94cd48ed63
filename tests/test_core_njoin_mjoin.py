"""Unit tests for the n-ary join and the MJoin state manager.

The state manager is exercised without the simulator: object arrivals are
fed directly in scripted orders and the outcome is compared against the
in-memory executor — the core correctness property of out-of-order execution.
"""

import itertools
import math
import random
from collections import Counter

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
from repro.core.njoin import NAryJoin, PreparedSegment
from repro.core.subplan import Batch
from repro.engine import Column, DataType, InMemoryExecutor, Planner, Relation, TableSchema
from repro.engine.executor import canonical_rows
from repro.engine.operators import HashJoin, SequentialScan
from repro.engine.operators.base import OperatorStats
from repro.engine.operators.scan import select_rows
from repro.engine.planner import JoinStep, QueryPlan
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.exceptions import CacheError, ExecutionError
from repro.workloads import ssb, tpch


_POLICIES = [MaxProgressEviction, MaxPendingSubplansEviction, LRUEviction, FIFOEviction]


def _expected_rows(catalog, query):
    return canonical_rows(InMemoryExecutor(catalog).execute(query).rows)


def _all_segment_ids(catalog, query):
    ids = []
    for table in query.tables:
        ids.extend(catalog.segment_ids(table))
    return ids


def _feed(manager, catalog, requests, max_cycles=None):
    """Feed the state manager until it asks for nothing more (or, for a policy
    that may thrash at this capacity, for ``max_cycles`` request cycles);
    returns the number of arrivals fed."""
    arrivals = 0
    while requests and manager.cycles_completed != max_cycles:
        for segment_id in requests:
            manager.on_arrival(segment_id, catalog.resolve_segment_id(segment_id))
        arrivals += len(requests)
        requests = manager.next_cycle_requests()
    return arrivals


def _prepared(segment, query):
    """``segment`` filtered as an arrival is: ``select_rows`` with the query's
    filter for its table, wrapped at offset 0."""
    rows = select_rows(segment, query.filter_for(segment.table_name))
    return PreparedSegment(segment.segment_id, segment.table_name, rows)


def _run_state_manager(
    catalog,
    query,
    cache_capacity,
    arrival_order=None,
    enable_pruning=True,
    policy=MaxProgressEviction,
    max_cycles=None,
):
    """A state manager fed by :func:`_feed`, in ``arrival_order`` first."""
    cache = ObjectCache(cache_capacity, policy=policy())
    manager = MJoinStateManager(query, catalog, cache, enable_pruning=enable_pruning)
    requests = manager.initial_requests()
    if arrival_order is not None:
        requests = list(arrival_order)
    _feed(manager, catalog, requests, max_cycles)
    return manager


class TestPreparedSegment:
    def test_filtering_and_hash_tables(self, tiny_tpch_catalog):
        query = tpch.q12()
        segment = tiny_tpch_catalog.segment("lineitem", 0)
        prepared = _prepared(segment, query)
        assert len(prepared.rows) <= segment.num_rows
        table = prepared.hash_table(("l_orderkey",))
        assert sum(len(rows) for rows in table.values()) == len(prepared.rows)
        # The hash table is memoised.
        assert prepared.hash_table(("l_orderkey",)) is table


class TestNAryJoin:
    def test_single_subplan_matches_filtered_join(self, tiny_tpch_catalog):
        query = tpch.q12()
        plan = Planner(tiny_tpch_catalog).plan(query)
        njoin = NAryJoin(query, plan)
        segments = {
            table: _prepared(tiny_tpch_catalog.segment(table, 0), query)
            for table in ("lineitem", "orders")
        }
        stats = OperatorStats()
        rows = njoin.execute_ordered([segments[step.table] for step in plan.steps], stats)
        order_keys = {row["o_orderkey"] for row in segments["orders"].rows}
        expected = [
            row for row in segments["lineitem"].rows if row["l_orderkey"] in order_keys
        ]
        assert len(rows) == len(expected)
        assert stats.tuples_probed == len(segments[plan.steps[0].table].rows)

    def test_union_over_all_subplans_equals_full_join(self, tiny_tpch_catalog):
        query = tpch.q12()
        plan = Planner(tiny_tpch_catalog).plan(query)
        njoin = NAryJoin(query, plan)
        total = 0
        for orders_segment in tiny_tpch_catalog.relation("orders").segments:
            for lineitem_segment in tiny_tpch_catalog.relation("lineitem").segments:
                segments = {
                    "orders": _prepared(orders_segment, query),
                    "lineitem": _prepared(lineitem_segment, query),
                }
                total += len(njoin.execute_ordered([segments[step.table] for step in plan.steps]))
        in_memory = InMemoryExecutor(tiny_tpch_catalog).execute(query)
        assert total == sum(row["line_count"] for row in in_memory.rows)

    def test_missing_segment_rejected(self, tiny_tpch_catalog):
        query = tpch.q12()
        plan = Planner(tiny_tpch_catalog).plan(query)
        njoin = NAryJoin(query, plan)
        with pytest.raises(ExecutionError, match="one segment per plan step"):
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
        [
            (["nope"], ["pk"]),
            (["bk"], ["nope"]),
            (["bk", "nope"], ["pk", "pv"]),
            (["bk", "bv"], ["pk", "nope"]),
        ],
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


def _merge_rows(build_row, probe_row):
    """The pairwise merge the kernel did before a joined row became a tuple of
    base rows: the reference for column order, precedence and the conflict error."""
    merged = {**build_row, **probe_row}
    if len(merged) != len(build_row) + len(probe_row):
        for key, value in probe_row.items():
            if key in build_row and build_row[key] != value:
                raise ExecutionError(f"column {key!r} differs between the join sides")
    return merged


def _nested_loop_join(build_rows, probe_rows, build_keys, probe_keys):
    """The reference: probe order, then build order, NULL equal to nothing."""
    return [
        _merge_rows(build_row, probe_row)
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


def _scan(name, rows, rows_per_segment, *extra_columns):
    schema = TableSchema(
        name,
        [Column(column, DataType.FLOAT) for column in (f"{name}1", f"{name}2", f"{name}v")]
        + [Column(column, DataType.FLOAT) for column in extra_columns],
    )
    return SequentialScan(Relation.from_rows(schema, rows, rows_per_segment))


@st.composite
def _chains(draw):
    """Tables ``t0`` (streamed) .. ``tn`` for a left-deep chain of n = 2-4 joins.

    Every table carries a column ``same`` whose values are equal but of
    alternating type (``7`` / ``7.0``), so which slot's value survived a merge
    shows in ``repr``.  Step ``i`` joins ``ti`` on one or two columns, each
    matched against a column of *any* earlier table: the probe side of a
    two-column key may live in two different slots.  Returns ``(tables,
    steps)``, a step being ``[(other table, other column, own column), ...]``.
    """
    joins = draw(st.integers(min_value=2, max_value=4))
    # Few distinct keys and mostly non-empty tables, or five joins rarely
    # leave a row; about one table in ten is an empty side.
    keys = st.sampled_from([0, 0, 0, 1, 1, None])
    tables = [
        [
            {f"t{position}1": key1, f"t{position}2": key2, f"t{position}v": value, "same": same}
            for key1, key2, value in draw(
                st.lists(
                    st.tuples(keys, keys, _VALUES),
                    min_size=min(1, draw(st.integers(min_value=0, max_value=9))),
                    max_size=5,
                )
            )
        ]
        for position, same in zip(range(joins + 1), itertools.cycle([7, 7.0]))
    ]
    steps = [
        [
            (
                f"t{draw(st.integers(min_value=0, max_value=position - 1))}",
                draw(st.sampled_from("12")),
                own,
            )
            for own in "12"[: draw(st.integers(min_value=1, max_value=2))]
        ]
        for position in range(1, joins + 1)
    ]
    return tables, steps


def _chain_keys(position, step):
    """(build key columns, probe key columns) of chain step ``position``."""
    return (
        [f"t{position}{own}" for _, _, own in step],
        [f"{other}{column}" for other, column, _ in step],
    )


def _chain_fold(tables, steps):
    """Every intermediate of the chain, by folding the nested-loop reference:
    ``[t0 rows, after step 1, ..., the answer]``."""
    intermediates = [tables[0]]
    for position, step in enumerate(steps, start=1):
        build_keys, probe_keys = _chain_keys(position, step)
        intermediates.append(
            _nested_loop_join(tables[position], intermediates[-1], build_keys, probe_keys)
        )
    return intermediates


def _chain_njoin(steps):
    conditions = [
        [
            JoinCondition(other, f"{other}{column}", f"t{position}", f"t{position}{own}")
            for other, column, own in step
        ]
        for position, step in enumerate(steps, start=1)
    ]
    query = Query(
        name="chain",
        tables=[f"t{position}" for position in range(len(steps) + 1)],
        joins=[condition for step in conditions for condition in step],
        aggregates=[AggregateSpec("count", None, "cnt")],
    )
    plan_steps = [JoinStep("t0")] + [
        JoinStep(f"t{position}", step) for position, step in enumerate(conditions, start=1)
    ]
    return NAryJoin(query, QueryPlan(query, plan_steps))


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

        join = HashJoin(
            _scan("b", build_rows, rows_per_segment),
            _scan("p", probe_rows, rows_per_segment),
            build_keys,
            probe_keys,
        )
        assert join.rows() == expected  # same rows, same order
        assert join.stats == OperatorStats(
            tuples_built=len(build_rows),
            tuples_probed=len(probe_rows),
            tuples_output=len(expected),
        )
        # One kernel, two callers.
        assert _pair_rows(build_rows, probe_rows, build_keys, probe_keys) == expected

    @settings(max_examples=200, deadline=None)
    @given(chain=_chains(), rows_per_segment=st.integers(min_value=1, max_value=3))
    def test_a_chain_of_hash_joins_equals_the_fold_of_nested_loops(self, chain, rows_per_segment):
        """Same rows, row order, column order and surviving values (``repr``
        tells ``7`` from ``7.0``) as merging pairwise at every join, and every
        join of the chain counts exactly what it did then."""
        tables, steps = chain
        intermediates = _chain_fold(tables, steps)
        root = _scan("t0", tables[0], rows_per_segment, "same")
        joins = []
        for position, step in enumerate(steps, start=1):
            build = _scan(f"t{position}", tables[position], rows_per_segment, "same")
            root = HashJoin(build, root, *_chain_keys(position, step))
            joins.append(root)
        assert repr(root.rows()) == repr(intermediates[-1])
        for position, join in enumerate(joins, start=1):
            assert join.stats == OperatorStats(
                tuples_built=len(tables[position]),
                tuples_probed=len(intermediates[position - 1]),
                tuples_output=len(intermediates[position]),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        chain=_chains(),
        rows_per_segment=st.integers(min_value=1, max_value=4),
        stride=st.integers(min_value=1, max_value=3),
    )
    def test_the_nary_join_equals_the_fold_of_nested_loops(self, chain, rows_per_segment, stride):
        tables, steps = chain
        njoin = _chain_njoin(steps)
        intermediates = _chain_fold(tables, steps)
        stats = OperatorStats()
        whole = [
            PreparedSegment(f"t{position}.0", f"t{position}", rows)
            for position, rows in enumerate(tables)
        ]
        assert repr(njoin.execute_ordered(whole, stats)) == repr(intermediates[-1])
        # The chain stops probing at the first empty intermediate.
        probed = list(itertools.takewhile(bool, map(len, intermediates[:-1])))
        assert stats == OperatorStats(
            tuples_probed=sum(probed), tuples_output=len(intermediates[-1])
        )

        # The same tables cut into segments (an empty table is one empty
        # segment), and a sorted batch that skips combinations.  A subplan id
        # is the combination's rank in the product, so a segment's offset is
        # its index times the product of the widths after its table.
        cuts = [range(0, max(len(rows), 1), rows_per_segment) for rows in tables]
        segments = [
            [
                PreparedSegment(
                    f"t{position}.{index}",
                    f"t{position}",
                    rows[start : start + rows_per_segment],
                    offset=index * math.prod(map(len, cuts[position + 1 :])),
                )
                for index, start in enumerate(cuts[position])
            ]
            for position, rows in enumerate(tables)
        ]
        prepared = {segment.segment_id: segment for table in segments for segment in table}
        lists = [[segment.segment_id for segment in table] for table in segments]
        total = len(list(itertools.product(*lists)))
        flags = bytes(index % stride == 0 for index in range(total))
        batch = Batch(lists, list(range(total)), flags)
        assert batch.combinations() == list(itertools.product(*lists))[::stride]
        expected = [
            _chain_fold([prepared[segment_id].rows for segment_id in combination], steps)[-1]
            for combination in batch.combinations()
        ]
        # Merged in reverse: a relation table may hold its segments in any order.
        relation_tables = njoin.relation_tables()
        for segment in reversed(list(prepared.values())):
            if segment.table_name != "t0":
                njoin.merge(relation_tables[segment.table_name], segment)
        # Only the subplans with rows come back, in id order.
        assert repr(njoin.execute_batch(batch, prepared, relation_tables)) == repr(
            list(filter(None, expected))
        )

    @pytest.mark.parametrize("surviving", [True, False])
    def test_conflicting_duplicate_columns_fail_where_rows_are_materialised(self, surviving):
        """The check lives in the one materialiser: a row that reaches the top
        of the chain with two slots disagreeing is an ``ExecutionError`` from
        ``rows()``; one that a later join drops is never merged, so never checked.

        ``t0 ⋈ t1 ⋈ t2`` where ``t1`` and ``t2`` — neither the leftmost slot —
        disagree on ``dup``; the row reaches the top only if ``t2``'s key matches."""
        tables = [
            [{"t01": 1, "t02": 1, "t0v": 0.5}],
            [{"t11": 1, "t12": 1, "t1v": 1.5, "dup": 1}],
            [{"t21": 1 if surviving else 2, "t22": 1, "t2v": 2.5, "dup": 2}],
        ]
        steps = [[("t0", "1", "1")], [("t1", "1", "1")]]
        top = _scan("t0", tables[0], 1)
        for position, step in enumerate(steps, start=1):
            build = _scan(f"t{position}", tables[position], 1, "dup")
            top = HashJoin(build, top, *_chain_keys(position, step))
        whole = [
            PreparedSegment(f"t{position}.0", f"t{position}", rows)
            for position, rows in enumerate(tables)
        ]
        ids = tuple(segment.segment_id for segment in whole)
        prepared = {segment.segment_id: segment for segment in whole}
        njoin = _chain_njoin(steps)
        calls = [
            top.rows,
            lambda: njoin.execute_ordered(whole),
            lambda: sum(
                njoin.execute_batch(
                    Batch([[i] for i in ids], [0], b"\x01"), prepared, njoin.relation_tables()
                ),
                [],
            ),
        ]
        for call in calls:
            if surviving:
                with pytest.raises(ExecutionError, match="column 'dup' appears on both join sides"):
                    call()
            else:
                assert call() == []

    def test_a_plan_step_joined_to_a_later_table_is_rejected(self):
        """A step's probe columns are read from the slots already joined."""
        query = Query(
            name="forward",
            tables=["a", "b", "c"],
            joins=[JoinCondition("a", "ak", "c", "ck"), JoinCondition("b", "bk", "c", "ck2")],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        plan = QueryPlan(
            query,
            [JoinStep("a"), JoinStep("b", [query.joins[1]]), JoinStep("c", [query.joins[0]])],
        )
        with pytest.raises(ExecutionError, match="'b' to a table not yet joined"):
            NAryJoin(query, plan)


def _witnesses(joined_rows):
    return Counter(tuple(frozenset(base.items()) for base in joined) for joined in joined_rows)


class TestWitnesses:
    """A joined row is the tuple of base rows that produced it — its witness —
    so "MJoin returns exactly the pull-based answer" can be checked one level
    below the aggregates: the witnesses the pull-based tree materialises are
    the union over the subplans MJoin executes, whatever order the objects
    arrive in, whichever policy picks the victims and from the smallest cache
    that can make progress (one object per table) to one that never evicts.
    None is lost to an eviction — which takes the victim's matches out of its
    relation's hash table — and none produced twice, by two subplans or by a
    re-fetched object merged in beside its former self."""

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize(
        "workload, name",
        [
            pytest.param(workload, name, id=f"{workload.__name__.rsplit('.', 1)[-1]}-{name}")
            for workload in (tpch, ssb)
            for name in sorted(workload.QUERIES)
        ],
    )
    def test_mjoin_witnesses_equal_the_pull_based_trees(self, workload, name, scale, materialised):
        catalog = workload.build_catalog(scale, seed=42)
        query = workload.query(name)
        InMemoryExecutor(catalog).execute(query)
        expected = _witnesses(materialised)
        # Base rows are distinct, so "the same multiset" is "each exactly once".
        assert set(expected.values()) <= {1}
        # A single-table query joins nothing: no witnesses on either side.  At
        # ``tiny`` the filters of TPC-H Q3 and SSB Q2.1 leave no joined row either.
        if scale == "small":
            assert bool(expected) == (len(query.tables) > 1)

        scan_order = _all_segment_ids(catalog, query)
        shuffled = list(scan_order)
        random.Random(20).shuffle(shuffled)
        capacities = (len(query.tables), len(query.tables) + 2, len(scan_order))
        evictions = 0
        for policy, capacity, arrival_order in itertools.product(
            _POLICIES, capacities, (scan_order, scan_order[::-1], shuffled)
        ):
            materialised.clear()
            # Only max-progress is sure to finish from a cache it has to evict
            # from; the others may thrash, and are held to "no witness twice,
            # none made up" over the progress ten request cycles bring them.
            max_cycles = None if policy is MaxProgressEviction else 10
            manager = _run_state_manager(
                catalog, query, capacity, arrival_order, policy=policy, max_cycles=max_cycles
            )
            case = (policy.name, capacity)
            unbounded = capacity == len(scan_order)
            evictions += manager.cache.num_evictions
            assert not (unbounded and manager.cache.num_evictions)
            if unbounded or policy is MaxProgressEviction:
                assert not manager.tracker.has_pending(), case
            witnesses = _witnesses(materialised)
            if not manager.tracker.has_pending():
                assert witnesses == expected, case
            else:
                assert witnesses <= expected, case
            if expected:  # one row dict per result row, none for an intermediate
                assert len(materialised) == manager.stats.tuples_output
        if scale == "small" and expected:
            assert evictions  # or no relation table ever lost a segment


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
        assert not manager.tracker.has_pending()

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
        manager = MJoinStateManager(query, tiny_tpch_catalog, ObjectCache(2))
        arrivals = _feed(manager, tiny_tpch_catalog, manager.initial_requests())
        total_segments = len(_all_segment_ids(tiny_tpch_catalog, query))
        assert not manager.tracker.has_pending()
        assert arrivals > total_segments
        assert manager.cycles_completed >= 2

    def test_large_cache_needs_single_cycle(self, tiny_tpch_catalog):
        query = tpch.q12()
        manager = MJoinStateManager(query, tiny_tpch_catalog, ObjectCache(100))
        arrivals = _feed(manager, tiny_tpch_catalog, manager.initial_requests())
        total_segments = len(_all_segment_ids(tiny_tpch_catalog, query))
        assert not manager.tracker.has_pending()
        assert arrivals == total_segments
        assert manager.cycles_completed == 1
        assert manager.cache.num_evictions == 0

    def test_duplicate_arrival_is_ignored(self, tiny_tpch_catalog):
        query = tpch.q12()
        cache = ObjectCache(10)
        manager = MJoinStateManager(query, tiny_tpch_catalog, cache)
        segment = tiny_tpch_catalog.resolve_segment_id("orders.0")
        first = manager.on_arrival("orders.0", segment)
        assert "orders.0" in cache and first.tuples_built > 0
        second = manager.on_arrival("orders.0", segment)
        # Scanned again, and nothing more: no second insertion, no build.
        assert second == OperatorStats(tuples_scanned=segment.num_rows)
        assert cache.num_insertions == 1
        assert manager.stats == OperatorStats(
            tuples_scanned=2 * segment.num_rows, tuples_built=first.tuples_built
        )

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
