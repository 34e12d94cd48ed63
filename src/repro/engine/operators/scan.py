"""The scan operator over a whole relation, and the selection it shares.

Scans materialise: every row of every segment counts as scanned and every
selected row as output, whatever a downstream
:class:`~repro.engine.operators.limit.Limit` goes on to keep.  The counters
count the rows, not the work: a selection :func:`select_rows` answers from
the segment's memo is charged the same simulated CPU as the first one.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.operators.base import Operator, Row
from repro.engine.predicate import Predicate
from repro.engine.relation import Relation, Segment


def select_rows(segment: Segment, predicate: Optional[Predicate]) -> List[Row]:
    """The rows of ``segment`` passing ``predicate``, in segment order.

    The predicate's bulk ``select`` filters the segment's row list, and the
    result is kept on the segment (``selected_by`` / ``selected_rows``), so
    the next call with the same predicate object — another tenant of the
    same ``Query``, a re-fetch after an eviction, the next repetition —
    costs one ``is`` check.  A selection that raises is not kept.  Without
    a predicate the result *is* the segment's row list.  In both cases the
    list and its row dicts are shared: callers must not mutate them.
    """
    if predicate is None:
        return segment.rows
    if segment.selected_by is predicate:
        return segment.selected_rows
    rows = segment.filtered_rows(predicate)
    segment.selected_rows = rows
    segment.selected_by = predicate
    return rows


class SequentialScan(Operator):
    """Scan every segment of a relation in order (PostgreSQL seq-scan)."""

    def __init__(self, relation: Relation, predicate: Optional[Predicate] = None) -> None:
        super().__init__()
        self.relation = relation
        self.predicate = predicate

    def rows(self) -> List[Row]:
        """The selected rows of every segment, concatenated into one fresh list."""
        output: List[Row] = []
        segments = self.relation.segments
        for segment in segments:
            output.extend(select_rows(segment, self.predicate))
        self.stats.tuples_scanned += sum(len(segment) for segment in segments)
        self.stats.tuples_output += len(output)
        return output
