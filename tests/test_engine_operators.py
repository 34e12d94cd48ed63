"""Unit tests for the physical operators."""

import itertools

import pytest

from repro.engine import Column, DataType, Relation, TableSchema
from repro.engine.operators import (
    AggregateState,
    HashAggregate,
    HashJoin,
    Limit,
    Operator,
    OperatorStats,
    SequentialScan,
    Sort,
)
from repro.engine.operators.hash_join import materialise_rows
from repro.engine.predicate import Comparison, col, eq, lit
from repro.engine.query import AggregateSpec
from repro.exceptions import ExecutionError, QueryError


@pytest.fixture()
def numbers_relation() -> Relation:
    schema = TableSchema(
        "numbers", [Column("n", DataType.INTEGER), Column("parity", DataType.STRING)]
    )
    rows = [{"n": index, "parity": "even" if index % 2 == 0 else "odd"} for index in range(10)]
    return Relation.from_rows(schema, rows, rows_per_segment=4)


class TestScans:
    def test_sequential_scan_returns_all_rows(self, numbers_relation):
        scan = SequentialScan(numbers_relation)
        assert len(scan.rows()) == 10
        assert scan.stats.tuples_scanned == 10

    def test_sequential_scan_with_predicate(self, numbers_relation):
        scan = SequentialScan(numbers_relation, predicate=eq("parity", "even"))
        rows = scan.rows()
        assert [row["n"] for row in rows] == [0, 2, 4, 6, 8]
        assert scan.stats.tuples_scanned == 10
        assert scan.stats.tuples_output == 5

    def test_filtered_scan_returns_a_list_the_caller_owns(self, numbers_relation):
        """The segments memoise the selection; clearing one scan's output
        must not empty the next scan with the same predicate."""
        predicate = eq("parity", "even")
        SequentialScan(numbers_relation, predicate=predicate).rows().clear()
        rows = SequentialScan(numbers_relation, predicate=predicate).rows()
        assert [row["n"] for row in rows] == [0, 2, 4, 6, 8]


class TestLimitSort:
    def test_limit(self, numbers_relation):
        operator = Limit(SequentialScan(numbers_relation), 3)
        assert len(operator.rows()) == 3
        with pytest.raises(QueryError):
            Limit(SequentialScan(numbers_relation), 0)

    def test_sort(self, numbers_relation):
        operator = Sort(SequentialScan(numbers_relation), ["parity", "n"])
        assert [row["n"] for row in operator.rows()][:6] == [0, 2, 4, 6, 8, 1]

    def test_limit_longer_than_input_keeps_every_row(self, numbers_relation):
        operator = Limit(SequentialScan(numbers_relation), 50)
        assert [row["n"] for row in operator.rows()] == list(range(10))
        assert operator.stats == OperatorStats(tuples_output=10)

    def test_sort_keeps_input_order_within_equal_keys(self, numbers_relation):
        operator = Sort(SequentialScan(numbers_relation), ["parity"])
        assert [row["n"] for row in operator.rows()] == [0, 2, 4, 6, 8, 1, 3, 5, 7, 9]


class TestHashJoin:
    def _relations(self):
        left_schema = TableSchema(
            "left_t", [Column("lk", DataType.INTEGER), Column("lv", DataType.STRING)]
        )
        right_schema = TableSchema(
            "right_t", [Column("rk", DataType.INTEGER), Column("rv", DataType.STRING)]
        )
        left = Relation.from_rows(
            left_schema, [{"lk": i % 3, "lv": f"L{i}"} for i in range(6)], 3
        )
        right = Relation.from_rows(
            right_schema, [{"rk": i, "rv": f"R{i}"} for i in range(3)], 3
        )
        return left, right

    def test_join_produces_all_matches(self):
        left, right = self._relations()
        join = HashJoin(
            build=SequentialScan(right),
            probe=SequentialScan(left),
            build_keys=["rk"],
            probe_keys=["lk"],
        )
        rows = join.rows()
        assert len(rows) == 6
        assert all(row["rk"] == row["lk"] for row in rows)
        assert join.stats.tuples_built == 3
        assert join.stats.tuples_probed == 6
        assert join.stats.tuples_output == 6

    def test_join_with_no_matches(self):
        left, right = self._relations()
        join = HashJoin(
            build=SequentialScan(right, predicate=eq("rk", 999)),
            probe=SequentialScan(left),
            build_keys=["rk"],
            probe_keys=["lk"],
        )
        assert join.rows() == []

    def test_key_lists_must_match(self):
        left, right = self._relations()
        with pytest.raises(ExecutionError):
            HashJoin(SequentialScan(right), SequentialScan(left), ["rk"], [])

    @staticmethod
    def _rows_join(build_rows, probe_rows, build_keys, probe_keys):
        build_schema = TableSchema("b", [Column(name, DataType.INTEGER) for name in build_rows[0]])
        probe_schema = TableSchema("p", [Column(name, DataType.INTEGER) for name in probe_rows[0]])
        return HashJoin(
            build=SequentialScan(Relation.from_rows(build_schema, build_rows, 2)),
            probe=SequentialScan(Relation.from_rows(probe_schema, probe_rows, 2)),
            build_keys=build_keys,
            probe_keys=probe_keys,
        )

    def test_null_keys_never_match(self):
        """``NULL = NULL`` is not true: same rule as ``Comparison("=", ...)``."""
        join = self._rows_join(
            [{"rk": None, "rv": 1}, {"rk": 7, "rv": 2}],
            [{"lk": None, "lv": 3}, {"lk": 7, "lv": 4}],
            ["rk"],
            ["lk"],
        )
        assert join.rows() == [{"rk": 7, "rv": 2, "lk": 7, "lv": 4}]
        # NULL-keyed rows are still built and probed (and cost CPU time).
        assert (join.stats.tuples_built, join.stats.tuples_probed, join.stats.tuples_output) == (
            2,
            2,
            1,
        )

    def test_null_component_of_a_multi_column_key_never_matches(self):
        join = self._rows_join(
            [{"r1": 1, "r2": None}, {"r1": None, "r2": 2}, {"r1": 1, "r2": 2}],
            [{"l1": 1, "l2": None}, {"l1": None, "l2": 2}, {"l1": 1, "l2": 2}],
            ["r1", "r2"],
            ["l1", "l2"],
        )
        assert join.rows() == [{"r1": 1, "r2": 2, "l1": 1, "l2": 2}]
        assert join.stats.tuples_built == join.stats.tuples_probed == 3

    @pytest.mark.parametrize(
        "build_keys, probe_keys",
        [
            (["nope"], ["lk"]),
            (["rk"], ["nope"]),
            (["rk", "nope"], ["lk", "lv"]),
            (["rk", "rv"], ["lk", "nope"]),
        ],
    )
    def test_missing_key_column_is_an_execution_error(self, build_keys, probe_keys):
        join = self._rows_join(
            [{"rk": 1, "rv": 1}], [{"lk": 1, "lv": 1}], build_keys, probe_keys
        )
        with pytest.raises(ExecutionError, match="join key column missing.*nope"):
            join.rows()

    def test_materialise_rows_merges_and_detects_conflicts(self):
        """A joined row is (probe, build, ...): columns come rightmost slot
        first, as ``{**build, **probe}`` nests, and the leftmost value wins."""
        assert materialise_rows([]) == []
        assert materialise_rows([({"b": 2},), ({"b": 2}, {"a": 1})]) == [
            {"b": 2},
            {"a": 1, "b": 2},
        ]
        (merged,) = materialise_rows([({"a": 1, "b": 2}, {"a": 1.0, "c": 3}, {"d": 4, "c": 3})])
        assert list(merged.items()) == [("d", 4), ("c", 3), ("a", 1), ("b", 2)]
        assert type(merged["a"]) is int  # equal values merge; the leftmost slot's is kept
        for conflicting in [({"b": 2, "a": 2}, {"a": 1}), ({"x": 0}, {"a": 1}, {"a": 2})]:
            with pytest.raises(ExecutionError, match="column 'a' appears on both join sides"):
                materialise_rows([({"ok": 1},), conflicting])


class TestAggregation:
    def test_hash_aggregate_group_by(self, numbers_relation):
        operator = HashAggregate(
            SequentialScan(numbers_relation),
            group_by=["parity"],
            aggregates=[
                AggregateSpec("count", None, "cnt"),
                AggregateSpec("sum", col("n"), "total"),
                AggregateSpec("min", col("n"), "smallest"),
                AggregateSpec("max", col("n"), "largest"),
                AggregateSpec("avg", col("n"), "average"),
            ],
        )
        rows = {row["parity"]: row for row in operator.rows()}
        assert rows["even"]["cnt"] == 5
        assert rows["even"]["total"] == 20
        assert rows["odd"]["smallest"] == 1
        assert rows["odd"]["largest"] == 9
        assert rows["even"]["average"] == pytest.approx(4.0)

    def test_aggregate_without_group_by_produces_one_row(self, numbers_relation):
        operator = HashAggregate(
            SequentialScan(numbers_relation),
            group_by=[],
            aggregates=[AggregateSpec("sum", col("n"), "total")],
        )
        rows = operator.rows()
        assert len(rows) == 1
        assert rows[0]["total"] == 45

    def test_aggregate_state_is_order_insensitive(self, numbers_relation):
        rows = list(SequentialScan(numbers_relation).rows())
        forward = AggregateState(["parity"], [AggregateSpec("sum", col("n"), "total")])
        backward = AggregateState(["parity"], [AggregateSpec("sum", col("n"), "total")])
        forward.add_all(rows)
        backward.add_all(list(reversed(rows)))
        key = lambda row: row["parity"]
        assert sorted(forward.results(), key=key) == sorted(backward.results(), key=key)

    def test_aggregate_state_incremental_batches(self, numbers_relation):
        rows = list(SequentialScan(numbers_relation).rows())
        state = AggregateState([], [AggregateSpec("count", None, "cnt")])
        state.add_all(rows[:3])
        state.add_all(rows[3:])
        assert state.results() == [{"cnt": 10}]

    def test_sum_of_null_raises(self):
        state = AggregateState([], [AggregateSpec("sum", col("x"), "s")])
        with pytest.raises(ExecutionError):
            state.add({"x": None})

    @pytest.mark.parametrize("function", ["sum", "avg", "min", "max"])
    def test_null_is_an_execution_error_in_every_arrival_order(self, function):
        """MJoin folds rows in the CSD's delivery order: a NULL must not be
        ignored when it comes first and a bare ``TypeError`` when it comes later."""
        for order in itertools.permutations([{"x": None}, {"x": 1.5}, {"x": -2.0}]):
            state = AggregateState([], [AggregateSpec(function, col("x"), "a")])
            with pytest.raises(ExecutionError, match=f"cannot {function} NULL"):
                state.add_all(order)

    @pytest.mark.parametrize(
        "function, expected",
        [("count", 3), ("sum", 2.5), ("avg", 2.5 / 3), ("min", -2.0), ("max", 3.0)],
    )
    def test_answer_is_the_same_in_every_arrival_order(self, function, expected):
        for order in itertools.permutations([{"x": 1.5}, {"x": -2.0}, {"x": 3.0}]):
            state = AggregateState([], [AggregateSpec(function, col("x"), "a")])
            state.add_all(order)
            assert state.results() == [{"a": expected}]

    def test_missing_group_by_column_is_an_execution_error(self):
        state = AggregateState(["g"], [AggregateSpec("count", None, "cnt")])
        with pytest.raises(ExecutionError, match="row has no column 'g'"):
            state.add({"x": 1})

    def test_avg_of_empty_group_is_none(self):
        state = AggregateState([], [AggregateSpec("avg", col("x"), "a")])
        assert state.results() == []


class TestStatsCollection:
    def test_collect_stats_aggregates_children(self, numbers_relation):
        """``Limit`` truncates a materialised child: the non-blocking
        operators below it count their whole input, not the first 5 rows."""
        scan = SequentialScan(numbers_relation, predicate=Comparison(">=", col("n"), lit(2)))
        ordered = Sort(scan, ["n"])
        operator = Limit(ordered, 5)
        assert [row["n"] for row in operator.rows()] == [2, 3, 4, 5, 6]
        assert scan.stats == OperatorStats(tuples_scanned=10, tuples_output=8)
        assert ordered.stats == OperatorStats(tuples_scanned=8, tuples_output=8)
        assert operator.stats == OperatorStats(tuples_output=5)
        assert operator.collect_stats() == OperatorStats(tuples_scanned=18, tuples_output=21)


class TestRowsProtocol:
    """``rows()`` is the primitive every operator implements."""

    @staticmethod
    def _trees(relation):
        def scan():
            return SequentialScan(relation, predicate=Comparison(">=", col("n"), lit(1)))

        return [
            scan(),
            HashJoin(
                build=HashAggregate(scan(), ["parity"], [AggregateSpec("max", col("n"), "m")]),
                probe=scan(),
                build_keys=["m"],
                probe_keys=["n"],
            ),
            HashAggregate(scan(), ["parity"], [AggregateSpec("sum", col("n"), "total")]),
            Sort(scan(), ["parity", "n"]),
            Limit(scan(), 4),
        ]

    def test_every_operator_class_is_covered(self, numbers_relation):
        covered = {type(tree) for tree in self._trees(numbers_relation)}
        assert covered == set(Operator.__subclasses__())

    def test_rows_are_the_same_on_a_second_tree(self, numbers_relation):
        for first, second in zip(self._trees(numbers_relation), self._trees(numbers_relation)):
            rows = first.rows()
            assert rows, type(first).__name__
            assert second.rows() == rows
            assert second.collect_stats() == first.collect_stats()

    def test_rows_returns_a_list_the_caller_owns(self, numbers_relation):
        """Unfiltered scans read the segments' cached row lists; handing one
        out would let a caller's ``sort()``/``clear()`` corrupt the relation."""
        scan = SequentialScan(numbers_relation)
        scan.rows().clear()
        assert len(scan.rows()) == 10

    def test_base_operator_has_no_rows(self):
        with pytest.raises(NotImplementedError):
            Operator().rows()
