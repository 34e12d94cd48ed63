"""Left-deep join planning for the vanilla (pull-based) engine.

The vanilla baseline in the paper is PostgreSQL's optimize-then-execute
model: the optimizer fixes a join order, and execution pulls base-table
segments in exactly that order.  :class:`Planner` reproduces the part of that
pipeline the experiments depend on:

* a deterministic left-deep join order (fact table streamed, dimensions
  built into hash tables),
* a physical operator tree computing the real answer, and
* the *segment access order* — the sequence of CSD objects a pull-based
  executor requests, with each table's segments requested consecutively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from repro.engine.catalog import Catalog
from repro.engine.operators import (
    HashAggregate,
    HashJoin,
    Limit,
    Operator,
    SequentialScan,
    Sort,
)
from repro.engine.query import JoinCondition, Query
from repro.engine.relation import Relation
from repro.exceptions import PlanningError


@dataclass
class JoinStep:
    """One step of a left-deep plan: join ``table`` into the running result."""

    table: str
    conditions: List[JoinCondition] = field(default_factory=list)


@dataclass
class QueryPlan:
    """A planned query: join order plus derived access order."""

    query: Query
    steps: List[JoinStep]

    @property
    def join_order(self) -> List[str]:
        """Tables in the order they enter the left-deep plan."""
        return [step.table for step in self.steps]

    def table_access_order(self) -> List[str]:
        """Order in which a pull-based executor reads base tables.

        In a left-deep hash-join plan the topmost build side is materialised
        first, then the next one down, and the streamed (leftmost) table is
        read last — mirroring the paper's example of PostgreSQL requesting
        "all objects of table C first, followed by B, and finally A".
        """
        if len(self.steps) == 1:
            return [self.steps[0].table]
        build_tables = [step.table for step in self.steps[1:]]
        return list(reversed(build_tables)) + [self.steps[0].table]

    def segment_access_order(self, catalog: Catalog) -> List[str]:
        """Segment ids in the order a pull-based executor requests them."""
        order: List[str] = []
        for table in self.table_access_order():
            order.extend(catalog.segment_ids(table))
        return order


class Planner:
    """Builds deterministic left-deep plans for :class:`Query` objects."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------ #
    # Logical planning
    # ------------------------------------------------------------------ #
    def plan(self, query: Query) -> QueryPlan:
        """Choose a left-deep join order for ``query``.

        The streamed (leftmost) table is the largest one; every subsequent
        step greedily picks the largest remaining table that is connected to
        the tables already joined, so the plan is valid for any connected
        join graph and deterministic for a given catalog.
        """
        query.validate(self.catalog)
        sizes = {table: self.catalog.relation(table).num_rows for table in query.tables}
        remaining: Set[str] = set(query.tables)

        first = max(sorted(remaining), key=lambda table: (sizes[table], table))
        steps = [JoinStep(table=first)]
        joined: Set[str] = {first}
        remaining.remove(first)

        while remaining:
            candidates = []
            for table in sorted(remaining):
                conditions = query.joins_with_any(table, joined)
                if conditions:
                    candidates.append((sizes[table], table, [cond for cond, _ in conditions]))
            if not candidates:
                raise PlanningError(
                    f"query {query.name!r}: tables {sorted(remaining)} are not connected "
                    "to the join prefix"
                )
            candidates.sort(key=lambda item: (-item[0], item[1]))
            _size, table, conditions = candidates[0]
            steps.append(JoinStep(table=table, conditions=conditions))
            joined.add(table)
            remaining.remove(table)
        return QueryPlan(query=query, steps=steps)

    # ------------------------------------------------------------------ #
    # Physical planning
    # ------------------------------------------------------------------ #
    def build_operator_tree(
        self,
        plan: QueryPlan,
        relation_provider: Optional[Callable[[str], Relation]] = None,
    ) -> Operator:
        """Instantiate the physical operator tree for ``plan``.

        ``relation_provider`` maps a table name to the :class:`Relation` to
        scan; by default the catalog's registered relations are used.  The
        vanilla-on-CSD executor passes a provider that scans only the
        segments it has fetched.
        """
        query = plan.query
        provider = relation_provider or self.catalog.relation

        def scan(table: str) -> Operator:
            return SequentialScan(provider(table), predicate=query.filter_for(table))

        current: Operator = scan(plan.steps[0].table)
        joined_tables = {plan.steps[0].table}
        for step in plan.steps[1:]:
            build_keys: List[str] = []
            probe_keys: List[str] = []
            for condition in step.conditions:
                build_keys.append(condition.column_for(step.table))
                probe_keys.append(condition.column_for(condition.other(step.table)))
            current = HashJoin(
                build=scan(step.table),
                probe=current,
                build_keys=build_keys,
                probe_keys=probe_keys,
            )
            joined_tables.add(step.table)

        if query.group_by or query.aggregates:
            current = HashAggregate(current, query.group_by, query.aggregates)
        if query.order_by:
            current = Sort(current, query.order_by)
        if query.limit is not None:
            current = Limit(current, query.limit)
        return current
