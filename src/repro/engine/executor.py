"""In-memory query execution (the "local PostgreSQL" baseline).

:class:`InMemoryExecutor` runs a query entirely over catalog-resident data
with no storage layer involved.  The paper uses the equivalent configuration
("all data stored locally, native file system") both as the ideal baseline
and to calibrate the component breakdown in Table 3; this reproduction also
uses it as ground truth for verifying the out-of-order Skipper results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.engine.catalog import Catalog
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.planner import Planner, QueryPlan
from repro.engine.query import Query


@dataclass
class ExecutionResult:
    """Result rows plus the work counters accumulated while producing them."""

    query_name: str
    rows: List[Row]
    stats: OperatorStats
    plan: QueryPlan


def canonical_rows(rows: List[Row]) -> List[Dict[str, object]]:
    """Return ``rows`` in a canonical order for comparisons across executors."""

    def sort_key(row: Dict[str, object]):
        return tuple(sorted((key, repr(value)) for key, value in row.items()))

    return sorted(rows, key=sort_key)


class InMemoryExecutor:
    """Execute queries directly over the relations registered in a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.planner = Planner(catalog)

    def execute(self, query: Query) -> ExecutionResult:
        """Plan and run ``query``, returning rows and work counters."""
        plan = self.planner.plan(query)
        root = self.planner.build_operator_tree(plan)
        rows = root.rows()
        stats = root.collect_stats()
        return ExecutionResult(query_name=query.name, rows=rows, stats=stats, plan=plan)
