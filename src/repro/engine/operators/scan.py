"""Scan operators over segments and whole relations.

Scans materialise: every row of every segment counts as scanned and every
selected row as output, whatever a downstream
:class:`~repro.engine.operators.limit.Limit` goes on to keep.  The counters
count the rows, not the work: a selection :func:`select_rows` answers from
the segment's memo is charged the same simulated CPU as the first one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine.operators.base import Operator, OperatorStats, Row
from repro.engine.predicate import Predicate
from repro.engine.relation import Relation, Segment


def select_rows(segment: Segment, predicate: Optional[Predicate]) -> List[Row]:
    """The rows of ``segment`` passing ``predicate``, in segment order.

    A predicate with a bulk ``selection`` filters the column arrays and
    materialises only the matching rows; other shapes fall back to per-row
    ``evaluate``.  Either way the result is kept on the segment
    (``selected_by`` / ``selected_rows``), so the next call with the same
    predicate object — another tenant of the same ``Query``, a re-fetch
    after an eviction, the next repetition — costs one ``is`` check.  A
    selection that raises is not kept.  Without a predicate the result *is*
    the segment's cached row list.  In both cases the list and its row
    dicts are shared: callers must not mutate them.
    """
    if predicate is None:
        return segment.rows
    if segment.selected_by is predicate:
        return segment.selected_rows
    rows = segment.filtered_rows(predicate)
    if rows is None:
        rows = [row for row in segment.rows if predicate.evaluate(row)]
    segment.selected_rows = rows
    segment.selected_by = predicate
    return rows


def _scan(
    segments: Sequence[Segment], predicate: Optional[Predicate], stats: OperatorStats
) -> List[Row]:
    """Concatenate the selected rows of ``segments`` into one fresh list."""
    output: List[Row] = []
    for segment in segments:
        output.extend(select_rows(segment, predicate))
    stats.tuples_scanned += sum(len(segment) for segment in segments)
    stats.tuples_output += len(output)
    return output


class SegmentScan(Operator):
    """Scan a single segment, optionally applying a filter predicate."""

    def __init__(self, segment: Segment, predicate: Optional[Predicate] = None) -> None:
        super().__init__()
        self.segment = segment
        self.predicate = predicate

    def rows(self) -> List[Row]:
        return _scan([self.segment], self.predicate, self.stats)


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

    def rows(self) -> List[Row]:
        return _scan(self._segments, self.predicate, self.stats)
