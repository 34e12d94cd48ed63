"""Expression and predicate trees evaluated over row dictionaries.

A predicate has one evaluator, :meth:`Predicate.select`: it filters a list
of rows in bulk — one comprehension per node, operands read a column at a
time through :meth:`Expression.values` — and is what every segment filter
uses.  The per-row definition it is tested against is
``tests/predicate_oracle.py``'s ``evaluate``: ``select`` accepts the rows
that accepts and raises wherever it would raise on one of them, so a
sub-predicate only sees the rows the per-row short-circuit would have
reached.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.exceptions import ExecutionError, QueryError

Row = Dict[str, object]


class Expression:
    """Base class for scalar expressions evaluated against a row."""

    def evaluate(self, row: Row) -> object:
        """Return the expression's value for ``row``."""
        raise NotImplementedError

    def values(self, rows: List[Row]) -> List[object]:
        """The expression's value for each of ``rows``, in order."""
        return [self.evaluate(row) for row in rows]

    def columns(self) -> FrozenSet[str]:
        """Names of all columns referenced by the expression."""
        raise NotImplementedError


class ColumnRef(Expression):
    """Reference to a column by name."""

    def __init__(self, name: str) -> None:
        if not name:
            raise QueryError("column reference requires a name")
        self.name = name

    def evaluate(self, row: Row) -> object:
        try:
            return row[self.name]
        except KeyError:
            raise ExecutionError(f"row has no column {self.name!r}") from None

    def values(self, rows: List[Row]) -> List[object]:
        try:
            return list(map(itemgetter(self.name), rows))
        except KeyError:
            raise ExecutionError(f"row has no column {self.name!r}") from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"col({self.name})"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: object) -> None:
        self.value = value

    def evaluate(self, row: Row) -> object:
        return self.value

    def values(self, rows: List[Row]) -> List[object]:
        return [self.value] * len(rows)

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"lit({self.value!r})"


_ARITHMETIC_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Arithmetic(Expression):
    """Binary arithmetic over two sub-expressions (``+ - * /``)."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC_OPS:
            raise QueryError(f"unsupported arithmetic operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._apply = _ARITHMETIC_OPS[op]

    def evaluate(self, row: Row) -> object:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        try:
            return self._apply(left, right)
        except ZeroDivisionError:
            raise ExecutionError("division by zero in expression") from None

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.left!r} {self.op} {self.right!r})"


class Predicate(Expression):
    """Base class for boolean expressions."""

    def select(self, rows: List[Row]) -> List[Row]:
        """The rows of ``rows`` this predicate accepts, in order, in a fresh list.

        Accepts exactly the rows the per-row reference accepts and raises
        where it raises (missing columns, arithmetic errors); a ``None``
        operand compares false.
        """
        raise NotImplementedError


_COMPARISON_OPS = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Comparison(Predicate):
    """Compare two expressions with a relational operator."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARISON_OPS:
            raise QueryError(f"unsupported comparison operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._compare = _COMPARISON_OPS[op]

    def select(self, rows: List[Row]) -> List[Row]:
        compare = self._compare
        return [
            row
            for row, a, b in zip(rows, self.left.values(rows), self.right.values(rows))
            if a is not None and b is not None and compare(a, b)
        ]

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.left!r} {self.op} {self.right!r})"


class Between(Predicate):
    """``low <= expr < high`` (half-open, convenient for date ranges)."""

    def __init__(self, expr: Expression, low: object, high: object, inclusive: bool = False) -> None:
        self.expr = expr
        self.low = low
        self.high = high
        self.inclusive = inclusive

    def select(self, rows: List[Row]) -> List[Row]:
        low, high = self.low, self.high
        pairs = zip(rows, self.expr.values(rows))
        if self.inclusive:
            return [
                row for row, value in pairs
                if value is not None and low <= value <= high  # type: ignore[operator]
            ]
        return [
            row for row, value in pairs
            if value is not None and low <= value < high  # type: ignore[operator]
        ]

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns()


class InList(Predicate):
    """Membership test against a fixed set of values."""

    def __init__(self, expr: Expression, values: Iterable[object]) -> None:
        self.expr = expr
        self.members = frozenset(values)
        if not self.members:
            raise QueryError("IN list must not be empty")

    def select(self, rows: List[Row]) -> List[Row]:
        members = self.members
        return [row for row, value in zip(rows, self.expr.values(rows)) if value in members]

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns()


class And(Predicate):
    """Conjunction of one or more predicates."""

    def __init__(self, *predicates: Predicate) -> None:
        if not predicates:
            raise QueryError("And requires at least one predicate")
        self.predicates: Sequence[Predicate] = tuple(predicates)

    def select(self, rows: List[Row]) -> List[Row]:
        # Each child only sees the rows every previous child accepted, as
        # the per-row short-circuit does.
        for predicate in self.predicates:
            if not rows:
                return []
            rows = predicate.select(rows)
        return rows

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.columns()
        return result


class Or(Predicate):
    """Disjunction of one or more predicates."""

    def __init__(self, *predicates: Predicate) -> None:
        if not predicates:
            raise QueryError("Or requires at least one predicate")
        self.predicates: Sequence[Predicate] = tuple(predicates)

    def select(self, rows: List[Row]) -> List[Row]:
        # Each child only sees the rows every previous child rejected (the
        # per-row path stops at the first child that accepts).  Rows are told
        # apart by identity, so the result keeps the input's order.
        accepted: Set[int] = set()
        remaining = rows
        for predicate in self.predicates:
            if not remaining:
                break
            selected = {id(row) for row in predicate.select(remaining)}
            if selected:
                accepted |= selected
                remaining = [row for row in remaining if id(row) not in selected]
        return [row for row in rows if id(row) in accepted]

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.columns()
        return result


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate

    def select(self, rows: List[Row]) -> List[Row]:
        excluded = {id(row) for row in self.predicate.select(rows)}
        return [row for row in rows if id(row) not in excluded]

    def columns(self) -> FrozenSet[str]:
        return self.predicate.columns()


# --------------------------------------------------------------------------- #
# Convenience constructors, used heavily by the workload definitions
# --------------------------------------------------------------------------- #
def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(column: str, value: object) -> Comparison:
    """``column = value`` against a literal."""
    return Comparison("=", ColumnRef(column), Literal(value))


def between(column: str, low: object, high: object) -> Between:
    """``low <= column < high``."""
    return Between(ColumnRef(column), low, high)


def in_list(column: str, values: Iterable[object]) -> InList:
    """``column IN (values…)``."""
    return InList(ColumnRef(column), values)
