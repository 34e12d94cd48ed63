"""Row filter operator."""

from __future__ import annotations

from typing import List

from repro.engine.operators.base import Operator, Row
from repro.engine.predicate import Predicate


class Filter(Operator):
    """Keep only the child rows satisfying a predicate."""

    def __init__(self, child: Operator, predicate: Predicate) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate

    def children(self) -> List[Operator]:
        return [self.child]

    def rows(self) -> List[Row]:
        rows = self.child.rows()
        output = [row for row in rows if self.predicate.evaluate(row)]
        self.stats.tuples_scanned += len(rows)
        self.stats.tuples_output += len(output)
        return output
