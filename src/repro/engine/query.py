"""Declarative specification of the analytical join queries used in the paper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.predicate import Expression, Predicate
from repro.exceptions import QueryError

_AGGREGATE_FUNCTIONS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class JoinCondition:
    """Equi-join condition ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def involves(self, table: str) -> bool:
        """Whether ``table`` appears on either side of the condition."""
        return table in (self.left_table, self.right_table)

    def other(self, table: str) -> str:
        """The table on the opposite side of ``table``."""
        if table == self.left_table:
            return self.right_table
        if table == self.right_table:
            return self.left_table
        raise QueryError(f"join condition {self} does not involve table {table!r}")

    def column_for(self, table: str) -> str:
        """The join column belonging to ``table``."""
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise QueryError(f"join condition {self} does not involve table {table!r}")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list, e.g. ``sum(l_extendedprice) AS revenue``."""

    function: str
    expression: Optional[Expression]
    alias: str

    def __post_init__(self) -> None:
        if self.function not in _AGGREGATE_FUNCTIONS:
            raise QueryError(f"unsupported aggregate function: {self.function!r}")
        if self.function != "count" and self.expression is None:
            raise QueryError(f"aggregate {self.function!r} requires an expression")
        if not self.alias:
            raise QueryError("aggregate requires an alias")


@dataclass
class Query:
    """A multi-way equi-join with per-table filters and a group-by aggregation.

    This covers the query shapes exercised in the paper (TPC-H Q1/Q3/Q5/Q6/Q12,
    SSB queries, the analytics-benchmark join task and the NREF join): a
    connected equi-join graph, conjunctive single-table filters, grouping
    columns and aggregates.
    """

    name: str
    tables: Sequence[str]
    joins: Sequence[JoinCondition] = field(default_factory=tuple)
    filters: Mapping[str, Predicate] = field(default_factory=dict)
    group_by: Sequence[str] = field(default_factory=tuple)
    aggregates: Sequence[AggregateSpec] = field(default_factory=tuple)
    order_by: Sequence[str] = field(default_factory=tuple)
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        self.tables = tuple(self.tables)
        self.joins = tuple(self.joins)
        self.filters = dict(self.filters)
        self.group_by = tuple(self.group_by)
        self.aggregates = tuple(self.aggregates)
        self.order_by = tuple(self.order_by)
        if not self.tables:
            raise QueryError(f"query {self.name!r} must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise QueryError(f"query {self.name!r} lists a table twice")
        for join in self.joins:
            for table in (join.left_table, join.right_table):
                if table not in self.tables:
                    raise QueryError(
                        f"query {self.name!r}: join references table {table!r} "
                        "which is not in the FROM list"
                    )
        for table in self.filters:
            if table not in self.tables:
                raise QueryError(
                    f"query {self.name!r}: filter references unknown table {table!r}"
                )
        if not self.aggregates and not self.group_by:
            raise QueryError(
                f"query {self.name!r} must produce either aggregates or group-by columns"
            )
        if self.limit is not None and self.limit <= 0:
            raise QueryError("limit must be positive when given")

    # ------------------------------------------------------------------ #
    # Join-graph helpers
    # ------------------------------------------------------------------ #
    def join_graph(self) -> Dict[str, Set[str]]:
        """Adjacency mapping table -> set of tables it joins with."""
        graph: Dict[str, Set[str]] = {table: set() for table in self.tables}
        for join in self.joins:
            graph[join.left_table].add(join.right_table)
            graph[join.right_table].add(join.left_table)
        return graph

    def is_connected(self) -> bool:
        """Whether the join graph connects all referenced tables."""
        if len(self.tables) == 1:
            return True
        graph = self.join_graph()
        seen = {self.tables[0]}
        frontier = [self.tables[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in graph[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.tables)

    def joins_with_any(self, table: str, others: Set[str]) -> List[Tuple[JoinCondition, str]]:
        """Join conditions connecting ``table`` to any table in ``others``.

        Returns ``(condition, other_table)`` pairs.
        """
        result: List[Tuple[JoinCondition, str]] = []
        for join in self.joins:
            if not join.involves(table):
                continue
            other = join.other(table)
            if other in others:
                result.append((join, other))
        return result

    # ------------------------------------------------------------------ #
    # Validation against a catalog
    # ------------------------------------------------------------------ #
    def validate(self, catalog: Catalog) -> None:
        """Check that tables, columns and group-by references all resolve."""
        for table in self.tables:
            if not catalog.has_relation(table):
                raise QueryError(f"query {self.name!r}: unknown table {table!r}")
        if not self.is_connected():
            raise QueryError(f"query {self.name!r}: join graph is not connected")
        column_owner: Dict[str, str] = {}
        for table in self.tables:
            for column in catalog.schema(table).column_names:
                if column in column_owner:
                    raise QueryError(
                        f"query {self.name!r}: column {column!r} exists in both "
                        f"{column_owner[column]!r} and {table!r}; column names must be unique"
                    )
                column_owner[column] = table
        for join in self.joins:
            for table, column in (
                (join.left_table, join.left_column),
                (join.right_table, join.right_column),
            ):
                if not catalog.schema(table).has_column(column):
                    raise QueryError(
                        f"query {self.name!r}: table {table!r} has no column {column!r}"
                    )
        for table, predicate in self.filters.items():
            schema = catalog.schema(table)
            for column in predicate.columns():
                if not schema.has_column(column):
                    raise QueryError(
                        f"query {self.name!r}: filter on {table!r} references "
                        f"unknown column {column!r}"
                    )
        available = set(column_owner)
        for column in self.group_by:
            if column not in available:
                raise QueryError(f"query {self.name!r}: unknown group-by column {column!r}")
        for aggregate in self.aggregates:
            if aggregate.expression is None:
                continue
            for column in aggregate.expression.columns():
                if column not in available:
                    raise QueryError(
                        f"query {self.name!r}: aggregate {aggregate.alias!r} references "
                        f"unknown column {column!r}"
                    )
        output_columns = set(self.group_by) | {agg.alias for agg in self.aggregates}
        for column in self.order_by:
            if column not in output_columns:
                raise QueryError(
                    f"query {self.name!r}: order-by column {column!r} is not produced "
                    "by the query"
                )
        unordered = [column for column in self.group_by if column not in self.order_by]
        if self.limit is not None and unordered:
            # Groups come out in first-arrival order, which is the device's
            # schedule under MJoin: only a total order makes "the first n" one
            # answer for both executors.  (A global aggregate has one row.)
            raise QueryError(
                f"query {self.name!r}: LIMIT needs a total order, but order_by leaves "
                f"group-by column(s) {unordered} unordered"
            )

    def filter_for(self, table: str) -> Optional[Predicate]:
        """The single-table filter attached to ``table``, if any."""
        return self.filters.get(table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Query {self.name} tables={list(self.tables)}>"
