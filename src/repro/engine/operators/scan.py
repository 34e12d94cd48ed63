"""Scan operators over segments and whole relations."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.engine.operators.base import Operator, OperatorStats, Row
from repro.engine.predicate import Predicate
from repro.engine.relation import Relation, Segment


def _scan_segment(
    segment: Segment, predicate: Optional[Predicate], stats: OperatorStats
) -> Iterator[Row]:
    """Yield a segment's (filtered) rows.

    When the predicate supports bulk
    :meth:`~repro.engine.predicate.Predicate.selection`, the filter runs
    over the column arrays and only matching rows are materialised.  The
    stats stay call-for-call identical to the per-row path, including under
    early termination (e.g. a downstream Limit): ``tuples_scanned`` counts
    exactly the rows the per-row scan would have touched by that point.
    """
    if predicate is None:
        for row in segment.rows:
            stats.tuples_scanned += 1
            stats.tuples_output += 1
            yield row
        return
    total = len(segment)
    selection = predicate.selection(segment.columns, total) if total else []
    if selection is None:
        for row in segment.rows:
            stats.tuples_scanned += 1
            if predicate.evaluate(row):
                stats.tuples_output += 1
                yield row
        return
    scanned = 0
    for position, row in zip(selection, segment.rows_at(selection)):
        stats.tuples_scanned += position + 1 - scanned
        scanned = position + 1
        stats.tuples_output += 1
        yield row
    stats.tuples_scanned += total - scanned


class SegmentScan(Operator):
    """Scan a single segment, optionally applying a filter predicate."""

    def __init__(self, segment: Segment, predicate: Optional[Predicate] = None) -> None:
        super().__init__()
        self.segment = segment
        self.predicate = predicate

    def __iter__(self) -> Iterator[Row]:
        return _scan_segment(self.segment, self.predicate, self.stats)


class SequentialScan(Operator):
    """Scan every segment of a relation in order (PostgreSQL seq-scan)."""

    def __init__(
        self,
        relation: Relation,
        predicate: Optional[Predicate] = None,
        segments: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        self.relation = relation
        self.predicate = predicate
        if segments is None:
            self._segments: List[Segment] = list(relation.segments)
        else:
            self._segments = [relation.segment(index) for index in segments]

    def __iter__(self) -> Iterator[Row]:
        for segment in self._segments:
            yield from _scan_segment(segment, self.predicate, self.stats)
