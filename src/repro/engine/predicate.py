"""Expression and predicate trees evaluated over row dictionaries."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from repro.exceptions import ExecutionError, QueryError

Row = Dict[str, object]

#: Column-name → value-array view of a columnar segment.
Columns = Mapping[str, Sequence[object]]


def _column_values(columns: Columns, name: str) -> Sequence[object]:
    """Look up one column array, matching the row-path missing-column error."""
    try:
        return columns[name]
    except KeyError:
        raise ExecutionError(f"row has no column {name!r}") from None


class Expression:
    """Base class for scalar expressions evaluated against a row."""

    def evaluate(self, row: Row) -> object:
        """Return the expression's value for ``row``."""
        raise NotImplementedError

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

    def evaluate(self, row: Row) -> bool:  # type: ignore[override]
        raise NotImplementedError

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        """Bulk evaluation over column arrays: indices of accepted rows.

        ``indices`` restricts evaluation to those row positions (ascending);
        ``None`` means all ``count`` rows.  Returns ``None`` when this
        predicate shape has no bulk path — the caller must then fall back to
        per-row :meth:`evaluate`.  Implementations reproduce the row path
        exactly: same missing-column errors, same None-compares-false
        behaviour, and sub-predicates are only evaluated for rows the row
        path would have reached (so short-circuiting raises — or avoids
        raising — identically).
        """
        return None


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

    def evaluate(self, row: Row) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return False
        return bool(self._compare(left, right))

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        left, right = self.left, self.right
        compare = self._compare
        if type(left) is ColumnRef and type(right) is Literal:
            if count == 0 or (indices is not None and not indices):
                return []
            values = _column_values(columns, left.name)
            constant = right.value
            if constant is None:
                # A None literal rejects every row, but only after the column
                # lookup — a missing column raises exactly as ``evaluate`` does.
                return []
            if indices is None:
                return [
                    i
                    for i, value in enumerate(values)
                    if value is not None and compare(value, constant)
                ]
            return [
                i
                for i in indices
                if values[i] is not None and compare(values[i], constant)
            ]
        if type(left) is ColumnRef and type(right) is ColumnRef:
            if count == 0 or (indices is not None and not indices):
                return []
            left_values = _column_values(columns, left.name)
            right_values = _column_values(columns, right.name)
            if indices is None:
                return [
                    i
                    for i, (a, b) in enumerate(zip(left_values, right_values))
                    if a is not None and b is not None and compare(a, b)
                ]
            return [
                i
                for i in indices
                if left_values[i] is not None
                and right_values[i] is not None
                and compare(left_values[i], right_values[i])
            ]
        return None

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

    def evaluate(self, row: Row) -> bool:
        value = self.expr.evaluate(row)
        if value is None:
            return False
        if self.inclusive:
            return bool(self.low <= value <= self.high)  # type: ignore[operator]
        return bool(self.low <= value < self.high)  # type: ignore[operator]

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        if type(self.expr) is not ColumnRef:
            return None
        if count == 0 or (indices is not None and not indices):
            return []
        values = _column_values(columns, self.expr.name)
        low, high = self.low, self.high
        positions = range(count) if indices is None else indices
        if self.inclusive:
            return [
                i
                for i in positions
                if values[i] is not None and low <= values[i] <= high  # type: ignore[operator]
            ]
        return [
            i
            for i in positions
            if values[i] is not None and low <= values[i] < high  # type: ignore[operator]
        ]

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns()


class InList(Predicate):
    """Membership test against a fixed set of values."""

    def __init__(self, expr: Expression, values: Iterable[object]) -> None:
        self.expr = expr
        self.values = frozenset(values)
        if not self.values:
            raise QueryError("IN list must not be empty")

    def evaluate(self, row: Row) -> bool:
        return self.expr.evaluate(row) in self.values

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        if type(self.expr) is not ColumnRef:
            return None
        if count == 0 or (indices is not None and not indices):
            return []
        values = _column_values(columns, self.expr.name)
        members = self.values
        if indices is None:
            return [i for i, value in enumerate(values) if value in members]
        return [i for i in indices if values[i] in members]

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns()


class And(Predicate):
    """Conjunction of one or more predicates."""

    def __init__(self, *predicates: Predicate) -> None:
        if not predicates:
            raise QueryError("And requires at least one predicate")
        self.predicates: Sequence[Predicate] = tuple(predicates)

    def evaluate(self, row: Row) -> bool:
        for predicate in self.predicates:
            if not predicate.evaluate(row):
                return False
        return True

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        # Each child only sees the rows that survived the previous children,
        # mirroring the row path's short-circuit: a child that would raise is
        # only reached when at least one row reaches it.
        result = indices
        for predicate in self.predicates:
            if result is not None and not result:
                return result
            result = predicate.selection(columns, count, result)
            if result is None:
                return None
        return result if result is not None else list(range(count))

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

    def evaluate(self, row: Row) -> bool:
        for predicate in self.predicates:
            if predicate.evaluate(row):
                return True
        return False

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        # Each child only sees rows every previous child rejected (the row
        # path stops evaluating children once one accepts).
        remaining = list(range(count)) if indices is None else list(indices)
        accepted: List[int] = []
        for predicate in self.predicates:
            if not remaining:
                break
            selected = predicate.selection(columns, count, remaining)
            if selected is None:
                return None
            if selected:
                accepted.extend(selected)
                selected_set = set(selected)
                remaining = [i for i in remaining if i not in selected_set]
        accepted.sort()
        return accepted

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.columns()
        return result


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate

    def evaluate(self, row: Row) -> bool:
        return not self.predicate.evaluate(row)

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        base = list(range(count)) if indices is None else indices
        selected = self.predicate.selection(columns, count, base)
        if selected is None:
            return None
        excluded = set(selected)
        return [i for i in base if i not in excluded]

    def columns(self) -> FrozenSet[str]:
        return self.predicate.columns()


class TruePredicate(Predicate):
    """Predicate that accepts every row (useful as a neutral filter)."""

    def evaluate(self, row: Row) -> bool:
        return True

    def selection(
        self, columns: Columns, count: int, indices: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        return list(range(count)) if indices is None else list(indices)

    def columns(self) -> FrozenSet[str]:
        return frozenset()


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


def ge(column: str, value: object) -> Comparison:
    """``column >= value`` against a literal."""
    return Comparison(">=", ColumnRef(column), Literal(value))


def lt(column: str, value: object) -> Comparison:
    """``column < value`` against a literal."""
    return Comparison("<", ColumnRef(column), Literal(value))


def between(column: str, low: object, high: object, inclusive: bool = False) -> Between:
    """``low <= column < high`` (or inclusive on both ends)."""
    return Between(ColumnRef(column), low, high, inclusive=inclusive)


def in_list(column: str, values: Iterable[object]) -> InList:
    """``column IN (values…)``."""
    return InList(ColumnRef(column), values)


def conjunction(predicates: List[Predicate]) -> Predicate:
    """AND a list of predicates together, tolerating empty lists."""
    if not predicates:
        return TruePredicate()
    if len(predicates) == 1:
        return predicates[0]
    return And(*predicates)
