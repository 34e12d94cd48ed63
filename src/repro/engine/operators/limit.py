"""Limit operator."""

from __future__ import annotations

from typing import List

from repro.engine.operators.base import Operator, Row
from repro.exceptions import QueryError


class Limit(Operator):
    """Keep at most the first ``count`` rows of the child.

    The child's batch is materialised, then truncated: a non-blocking child
    (a scan, filter or join in a hand-built tree) counts its whole input,
    not only the rows that survive.  Planner-built trees always have a
    blocking ``HashAggregate`` under any ``Limit``.
    """

    def __init__(self, child: Operator, count: int) -> None:
        super().__init__()
        if count <= 0:
            raise QueryError("limit must be positive")
        self.child = child
        self.count = count

    def children(self) -> List[Operator]:
        return [self.child]

    def rows(self) -> List[Row]:
        output = self.child.rows()[: self.count]
        self.stats.tuples_output += len(output)
        return output
