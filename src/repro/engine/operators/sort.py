"""Sort operator."""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.operators.base import Operator, Row


class Sort(Operator):
    """Blocking sort on one or more columns."""

    def __init__(self, child: Operator, keys: Sequence[str]) -> None:
        super().__init__()
        self.child = child
        self.keys = list(keys)

    def children(self) -> List[Operator]:
        return [self.child]

    def rows(self) -> List[Row]:
        output = self.child.rows()  # a fresh list: ours to sort in place
        output.sort(key=lambda row: tuple(row[key] for key in self.keys))
        self.stats.tuples_scanned += len(output)
        self.stats.tuples_output += len(output)
        return output
