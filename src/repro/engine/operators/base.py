"""Base class and statistics for physical operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List


Row = Dict[str, object]


@dataclass
class OperatorStats:
    """Work counters accumulated while an operator runs.

    The executors convert these counters into simulated CPU time through the
    :class:`~repro.engine.cost.CostModel`, so every operator is responsible
    for keeping them up to date.
    """

    tuples_scanned: int = 0
    tuples_built: int = 0
    tuples_probed: int = 0
    tuples_output: int = 0

    def merge(self, other: OperatorStats) -> None:
        """Add the counters of ``other`` into this object."""
        self.tuples_scanned += other.tuples_scanned
        self.tuples_built += other.tuples_built
        self.tuples_probed += other.tuples_probed
        self.tuples_output += other.tuples_output

    def total(self) -> int:
        """Total number of counted tuple operations."""
        return (
            self.tuples_scanned + self.tuples_built + self.tuples_probed + self.tuples_output
        )


class Operator:
    """A physical operator producing its whole output as one batch.

    :meth:`rows` is the primitive every operator implements: pull the
    children's batches, loop once, add the counters in bulk.
    """

    def __init__(self) -> None:
        self.stats = OperatorStats()

    def rows(self) -> List[Row]:
        """Run the operator and return its full output as a fresh list."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def collect_stats(self) -> OperatorStats:
        """Statistics for this operator and all of its children."""
        total = OperatorStats()
        total.merge(self.stats)
        for child in self.children():
            total.merge(child.collect_stats())
        return total

    def children(self) -> List[Operator]:
        """Child operators (empty for leaves)."""
        return []
