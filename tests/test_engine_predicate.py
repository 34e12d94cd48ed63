"""Unit and property-based tests for the expression / predicate tree."""

import pytest
from hypothesis import given, strategies as st
from predicate_oracle import evaluate

from repro.engine.predicate import (
    And,
    Arithmetic,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    between,
    col,
    eq,
    in_list,
    lit,
)
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
        assert evaluate(Comparison("=", col("a"), lit(5)), ROW)
        assert evaluate(Comparison("!=", col("a"), lit(4)), ROW)
        assert evaluate(Comparison("<", col("b"), lit(3)), ROW)
        assert not evaluate(Comparison(">", col("b"), lit(3)), ROW)
        assert evaluate(Comparison(">=", col("a"), col("b")), ROW)

    def test_null_comparisons_are_false(self):
        assert not evaluate(Comparison("=", col("d"), lit(None)), ROW)
        assert not evaluate(Comparison("<", col("d"), lit(10)), ROW)

    def test_invalid_comparison_operator(self):
        with pytest.raises(QueryError):
            Comparison("~", col("a"), lit(1))

    def test_between_half_open_and_inclusive(self):
        assert evaluate(Between(col("a"), 5, 6), ROW)
        assert not evaluate(Between(col("a"), 4, 5), ROW)
        assert evaluate(Between(col("a"), 4, 5, inclusive=True), ROW)
        assert evaluate(between("a", 0, 10), ROW)

    def test_in_list(self):
        assert evaluate(InList(col("c"), ["hello", "world"]), ROW)
        assert not evaluate(in_list("c", ["nope"]), ROW)
        with pytest.raises(QueryError):
            InList(col("c"), [])

    def test_boolean_connectives(self):
        true = eq("a", 5)
        false = eq("a", 6)
        assert evaluate(And(true, true), ROW)
        assert not evaluate(And(true, false), ROW)
        assert evaluate(Or(false, true), ROW)
        assert not evaluate(Or(false, false), ROW)
        assert evaluate(Not(false), ROW)
        assert And(true, false).columns() == frozenset({"a"})

    def test_connectives_require_operands(self):
        with pytest.raises(QueryError):
            And()
        with pytest.raises(QueryError):
            Or()

    def test_shorthand_helpers(self):
        assert evaluate(eq("a", 5), ROW)
        assert evaluate(between("b", 2, 3), ROW)
        assert evaluate(in_list("c", ["hello"]), ROW)


@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
def test_comparison_matches_python_semantics(left, right):
    row = {"x": left}
    assert evaluate(Comparison("<", col("x"), lit(right)), row) == (left < right)
    assert evaluate(Comparison(">=", col("x"), lit(right)), row) == (left >= right)
    assert evaluate(Comparison("=", col("x"), lit(right)), row) == (left == right)


@given(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
)
def test_between_matches_python_range_check(value, low, span):
    high = low + abs(span)
    row = {"x": value}
    assert evaluate(Between(col("x"), low, high), row) == (low <= value < high)
    assert evaluate(Between(col("x"), low, high, inclusive=True), row) == (low <= value <= high)


@given(st.lists(st.booleans(), min_size=1, max_size=6))
def test_and_or_match_python_all_any(flags):
    predicates = [eq("flag", True) if flag else eq("flag", False) for flag in flags]
    row = {"flag": True}
    assert evaluate(And(*predicates), row) == all(flag for flag in flags)
    assert evaluate(Or(*predicates), row) == any(flag for flag in flags)


@given(st.integers(), st.integers(min_value=1, max_value=50))
def test_not_is_involution(value, modulus):
    predicate = eq("x", value % modulus)
    row = {"x": value % modulus}
    assert evaluate(Not(Not(predicate)), row) == evaluate(predicate, row)


# --------------------------------------------------------------------------- #
# Bulk ``select`` against the per-row ``evaluate`` reference
# --------------------------------------------------------------------------- #
def _accepted(predicate, rows):
    """The rows the per-row reference accepts: the definition ``select`` is held to."""
    return [row for row in rows if evaluate(predicate, row)]


class TestBulkSelection:
    ROWS = [{"a": 1, "d": None}, {"a": 5, "d": None}, {"a": None, "d": 3}]

    def test_none_literal_rejects_every_row_on_both_paths(self):
        predicate = Comparison("=", col("a"), lit(None))
        assert [evaluate(predicate, row) for row in self.ROWS] == [False, False, False]
        assert predicate.select(self.ROWS) == []

    def test_none_literal_missing_column_raises_on_both_paths(self):
        predicate = Comparison("=", col("missing"), lit(None))
        with pytest.raises(ExecutionError, match="missing"):
            evaluate(predicate, self.ROWS[0])
        with pytest.raises(ExecutionError, match="missing"):
            predicate.select(self.ROWS)

    def test_empty_input_never_looks_the_column_up(self):
        # No row reaches the predicate, so the row path would not raise either.
        for constant in (None, 1):
            predicate = Comparison("=", col("missing"), lit(constant))
            assert predicate.select([]) == []
            assert And(eq("a", 0), predicate).select(self.ROWS) == []

    def test_arithmetic_operands_select_what_evaluate_accepts(self):
        rows = [{"a": value} for value in (1, 5, 2, None, 0)]
        arithmetic = Comparison(">", Arithmetic("+", col("a"), lit(1)), lit(2))
        nonzero = [row for row in rows if row["a"] is not None]
        predicates = [
            arithmetic,
            And(eq("a", 5), arithmetic),
            Or(arithmetic, eq("a", 0)),
            Not(arithmetic),
            Comparison("<", Arithmetic("*", col("a"), col("a")), Arithmetic("-", lit(9), col("a"))),
        ]
        for predicate in predicates:
            assert predicate.select(nonzero) == _accepted(predicate, nonzero), predicate
        # A None operand of ``+`` raises on both paths, and only rows the
        # per-row short-circuit reaches are evaluated.
        with pytest.raises(TypeError):
            _accepted(arithmetic, rows)
        with pytest.raises(TypeError):
            arithmetic.select(rows)
        guarded = And(Comparison("!=", col("a"), lit(None)), arithmetic)
        assert guarded.select(rows) == _accepted(guarded, rows)

    def test_a_row_object_listed_twice_is_selected_twice(self):
        # ``Or`` and ``Not`` tell rows apart by identity; a repeated object
        # is the same row twice, accepted or rejected both times.
        first, second = {"a": 1}, {"a": 5}
        rows = [first, second, first, second]
        for predicate in (Or(eq("a", 1), eq("a", 7)), Not(eq("a", 1)), Or(Not(eq("a", 5)))):
            assert predicate.select(rows) == _accepted(predicate, rows), predicate

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
        predicates = [
            Comparison("<", col("x"), lit(constant)),
            Comparison(">=", col("x"), col("y")),
            Comparison("=", lit(constant), col("y")),
            Between(col("x"), constant, constant + 3),
            Between(col("y"), constant - 2, constant, inclusive=True),
            InList(col("x"), [constant, None]),
        ]
        predicates += [
            And(predicates[0], predicates[4]),
            Or(predicates[1], predicates[3]),
            Not(Or(predicates[5], predicates[0])),
        ]
        stored = {id(row) for row in rows}
        for predicate in predicates:
            selected = predicate.select(rows)
            assert selected == _accepted(predicate, rows)
            # A fresh list of the input rows themselves, never copies.
            assert selected is not rows and all(id(row) in stored for row in selected)
