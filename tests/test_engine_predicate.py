"""Unit and property-based tests for the expression / predicate tree."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.predicate import (
    And,
    Arithmetic,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    TruePredicate,
    between,
    col,
    conjunction,
    eq,
    ge,
    in_list,
    lit,
    lt,
)
from repro.engine.relation import Segment
from repro.exceptions import ExecutionError, QueryError


ROW = {"a": 5, "b": 2.5, "c": "hello", "d": None}


class TestExpressions:
    def test_column_ref(self):
        assert col("a").evaluate(ROW) == 5
        assert col("a").columns() == frozenset({"a"})

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError):
            col("zzz").evaluate(ROW)

    def test_literal(self):
        assert lit(42).evaluate(ROW) == 42
        assert lit(42).columns() == frozenset()

    @pytest.mark.parametrize(
        "op, expected", [("+", 7.5), ("-", 2.5), ("*", 12.5), ("/", 2.0)]
    )
    def test_arithmetic(self, op, expected):
        expr = Arithmetic(op, col("a"), col("b"))
        assert expr.evaluate(ROW) == pytest.approx(expected)
        assert expr.columns() == frozenset({"a", "b"})

    def test_arithmetic_invalid_operator(self):
        with pytest.raises(QueryError):
            Arithmetic("%", col("a"), col("b"))

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            Arithmetic("/", col("a"), lit(0)).evaluate(ROW)


class TestPredicates:
    def test_comparisons(self):
        assert Comparison("=", col("a"), lit(5)).evaluate(ROW)
        assert Comparison("!=", col("a"), lit(4)).evaluate(ROW)
        assert Comparison("<", col("b"), lit(3)).evaluate(ROW)
        assert not Comparison(">", col("b"), lit(3)).evaluate(ROW)
        assert Comparison(">=", col("a"), col("b")).evaluate(ROW)

    def test_null_comparisons_are_false(self):
        assert not Comparison("=", col("d"), lit(None)).evaluate(ROW)
        assert not Comparison("<", col("d"), lit(10)).evaluate(ROW)

    def test_invalid_comparison_operator(self):
        with pytest.raises(QueryError):
            Comparison("~", col("a"), lit(1))

    def test_between_half_open_and_inclusive(self):
        assert Between(col("a"), 5, 6).evaluate(ROW)
        assert not Between(col("a"), 4, 5).evaluate(ROW)
        assert Between(col("a"), 4, 5, inclusive=True).evaluate(ROW)
        assert between("a", 0, 10).evaluate(ROW)

    def test_in_list(self):
        assert InList(col("c"), ["hello", "world"]).evaluate(ROW)
        assert not in_list("c", ["nope"]).evaluate(ROW)
        with pytest.raises(QueryError):
            InList(col("c"), [])

    def test_boolean_connectives(self):
        true = eq("a", 5)
        false = eq("a", 6)
        assert And(true, true).evaluate(ROW)
        assert not And(true, false).evaluate(ROW)
        assert Or(false, true).evaluate(ROW)
        assert not Or(false, false).evaluate(ROW)
        assert Not(false).evaluate(ROW)
        assert And(true, false).columns() == frozenset({"a"})

    def test_connectives_require_operands(self):
        with pytest.raises(QueryError):
            And()
        with pytest.raises(QueryError):
            Or()

    def test_conjunction_helper(self):
        assert isinstance(conjunction([]), TruePredicate)
        single = eq("a", 5)
        assert conjunction([single]) is single
        combined = conjunction([eq("a", 5), lt("b", 10)])
        assert combined.evaluate(ROW)

    def test_shorthand_helpers(self):
        assert ge("a", 5).evaluate(ROW)
        assert lt("b", 3).evaluate(ROW)
        assert TruePredicate().evaluate({}) is True
        assert TruePredicate().columns() == frozenset()


@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
def test_comparison_matches_python_semantics(left, right):
    row = {"x": left}
    assert Comparison("<", col("x"), lit(right)).evaluate(row) == (left < right)
    assert Comparison(">=", col("x"), lit(right)).evaluate(row) == (left >= right)
    assert Comparison("=", col("x"), lit(right)).evaluate(row) == (left == right)


@given(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
)
def test_between_matches_python_range_check(value, low, span):
    high = low + abs(span)
    row = {"x": value}
    assert Between(col("x"), low, high).evaluate(row) == (low <= value < high)
    assert Between(col("x"), low, high, inclusive=True).evaluate(row) == (low <= value <= high)


@given(st.lists(st.booleans(), min_size=1, max_size=6))
def test_and_or_match_python_all_any(flags):
    predicates = [eq("flag", True) if flag else eq("flag", False) for flag in flags]
    row = {"flag": True}
    assert And(*predicates).evaluate(row) == all(flag for flag in flags)
    assert Or(*predicates).evaluate(row) == any(flag for flag in flags)


@given(st.integers(), st.integers(min_value=1, max_value=50))
def test_not_is_involution(value, modulus):
    predicate = eq("x", value % modulus)
    row = {"x": value % modulus}
    assert Not(Not(predicate)).evaluate(row) == predicate.evaluate(row)


# --------------------------------------------------------------------------- #
# Bulk ``selection`` against the generic ``evaluate`` reference
# --------------------------------------------------------------------------- #
def _columns(rows):
    return Segment("t", 0, rows).columns


class TestBulkSelection:
    ROWS = [{"a": 1, "d": None}, {"a": 5, "d": None}, {"a": None, "d": 3}]

    def test_none_literal_rejects_every_row_on_both_paths(self):
        predicate = Comparison("=", col("a"), lit(None))
        assert [predicate.evaluate(row) for row in self.ROWS] == [False, False, False]
        assert predicate.selection(_columns(self.ROWS), len(self.ROWS)) == []

    def test_none_literal_missing_column_raises_on_both_paths(self):
        predicate = Comparison("=", col("missing"), lit(None))
        with pytest.raises(ExecutionError, match="missing"):
            predicate.evaluate(self.ROWS[0])
        with pytest.raises(ExecutionError, match="missing"):
            predicate.selection(_columns(self.ROWS), len(self.ROWS))

    def test_empty_input_never_looks_the_column_up(self):
        # No row reaches the predicate, so the row path would not raise either.
        for constant in (None, 1):
            predicate = Comparison("=", col("missing"), lit(constant))
            assert predicate.selection({}, 0) == []
            assert predicate.selection(_columns(self.ROWS), len(self.ROWS), []) == []

    def test_shapes_without_a_bulk_path_return_none(self):
        arithmetic = Comparison(">", Arithmetic("+", col("a"), lit(1)), lit(2))
        columns = _columns([{"a": 1}, {"a": 5}])
        assert arithmetic.selection(columns, 2) is None
        assert And(eq("a", 5), arithmetic).selection(columns, 2) is None

    @given(
        values=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-5, 5)),
                st.one_of(st.none(), st.integers(-5, 5)),
            ),
            min_size=1,
            max_size=30,
        ),
        constant=st.integers(-5, 5),
    )
    def test_selection_matches_evaluate(self, values, constant):
        rows = [{"x": x, "y": y} for x, y in values]
        columns = _columns(rows)
        predicates = [
            Comparison("<", col("x"), lit(constant)),
            Comparison(">=", col("x"), col("y")),
            Between(col("x"), constant, constant + 3),
            Between(col("y"), constant - 2, constant, inclusive=True),
            InList(col("x"), [constant, None]),
            TruePredicate(),
        ]
        predicates += [
            And(predicates[0], predicates[3]),
            Or(predicates[1], predicates[2]),
            Not(Or(predicates[4], predicates[0])),
        ]
        for predicate in predicates:
            expected = [i for i, row in enumerate(rows) if predicate.evaluate(row)]
            assert predicate.selection(columns, len(rows)) == expected
