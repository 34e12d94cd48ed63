"""Projection operator."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.engine.operators.base import Operator, Row
from repro.engine.predicate import Expression
from repro.exceptions import QueryError


class Project(Operator):
    """Produce rows containing selected columns and/or computed expressions."""

    def __init__(
        self,
        child: Operator,
        columns: Optional[Sequence[str]] = None,
        expressions: Optional[Mapping[str, Expression]] = None,
    ) -> None:
        super().__init__()
        if not columns and not expressions:
            raise QueryError("Project requires at least one column or expression")
        self.child = child
        self.columns = list(columns or [])
        self.expressions = dict(expressions or {})

    def children(self) -> List[Operator]:
        return [self.child]

    def rows(self) -> List[Row]:
        output: List[Row] = []
        for row in self.child.rows():
            projected: Dict[str, object] = {name: row[name] for name in self.columns}
            for alias, expression in self.expressions.items():
                projected[alias] = expression.evaluate(row)
            output.append(projected)
        self.stats.tuples_output += len(output)
        return output
