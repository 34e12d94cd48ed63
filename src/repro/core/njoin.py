"""Stateless n-ary join over the cached segments of one subplan or a batch.

The MJoin state manager decides *when* subplans are runnable; this module
decides which hash table each left-deep step probes, in which slot of the
joined row each probe column lives, and how a batch shares its prefixes (a
:class:`~repro.core.subplan.Batch` is a product, so its prefixes are a trie
read straight off its lists — no combination is spelled out to find them).  The
build and probe loops and the joined-row representation are the pull-based
engine's (:mod:`repro.engine.operators.hash_join`), so both executors order,
NULL-handle and fail identically; intermediates are tuples of base rows and
only a full-depth result is materialised into row dicts.  Tables are built
lazily per (segment, join key) and memoised on the cached entry, mirroring
the paper's design: hash tables are built as objects arrive and the join
merely probes them.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.subplan import Batch
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.operators.hash_join import (
    HashTable,
    JoinedRow,
    build_hash_table,
    materialise_rows,
    probe_hash_table,
)
from repro.engine.operators.scan import select_rows
from repro.engine.planner import QueryPlan
from repro.engine.predicate import Predicate
from repro.engine.query import Query
from repro.engine.relation import Segment
from repro.exceptions import ExecutionError


class PreparedSegment:
    """A fetched segment after filtering, ready to be joined.

    ``hash_tables`` maps a tuple of key column names to the segment's
    :func:`~repro.engine.operators.hash_join.build_hash_table` table on
    them; tables are built on first use and reused across all subplans that
    touch the segment.
    """

    __slots__ = ("segment_id", "table_name", "rows", "hash_tables")

    def __init__(self, segment_id: str, table_name: str, rows: List[Row]) -> None:
        self.segment_id = segment_id
        self.table_name = table_name
        self.rows = rows
        self.hash_tables: Dict[Tuple[str, ...], HashTable] = {}

    @property
    def num_rows(self) -> int:
        """Number of (filtered) rows buffered for the segment."""
        return len(self.rows)

    def hash_table(self, key_columns: Tuple[str, ...]) -> HashTable:
        """Return (building if necessary) the hash table on ``key_columns``."""
        table = self.hash_tables.get(key_columns)
        if table is None:
            table = self.hash_tables[key_columns] = build_hash_table(self.rows, key_columns)
        return table


def prepare_segment(
    segment: Segment, predicate: Optional[Predicate], segment_id: Optional[str] = None
) -> PreparedSegment:
    """Filter a raw segment into a :class:`PreparedSegment`.

    The rows are selected exactly as the pull-based scans select them
    (:func:`~repro.engine.operators.scan.select_rows`).  The prepared row
    list is never mutated downstream, so the unfiltered path shares the
    segment's row list instead of copying it.
    """
    return PreparedSegment(
        segment_id=segment_id or segment.segment_id,
        table_name=segment.table_name,
        rows=select_rows(segment, predicate),
    )


class NAryJoin:
    """Joins one prepared segment per relation following a left-deep order."""

    def __init__(self, query: Query, plan: QueryPlan) -> None:
        self.query = query
        self.plan = plan
        if plan.steps and {step.table for step in plan.steps} != set(query.tables):
            raise ExecutionError("plan does not cover the query's tables")
        if not all(step.conditions for step in plan.steps[1:]):
            raise ExecutionError("every plan step after the first needs a join condition")
        #: Table names in plan order, and per-probe-step the probe side's
        #: (slot, column) keys and the build side's key columns — both depend
        #: only on the plan, so deriving them once here keeps them out of the
        #: per-subplan execute loop.  A table's slot is its plan position.
        self._step_tables: Tuple[str, ...] = tuple(step.table for step in plan.steps)
        slot_of = {table: slot for slot, table in enumerate(self._step_tables)}
        self._step_keys: List[Tuple[Tuple[Tuple[int, str], ...], Tuple[str, ...]]] = []
        for depth, step in enumerate(plan.steps[1:], start=1):
            others = [condition.other(step.table) for condition in step.conditions]
            if not all(slot_of.get(other, depth) < depth for other in others):
                raise ExecutionError(f"plan joins {step.table!r} to a table not yet joined")
            self._step_keys.append(
                (
                    tuple(
                        (slot_of[other], condition.column_for(other))
                        for other, condition in zip(others, step.conditions)
                    ),
                    tuple(condition.column_for(step.table) for condition in step.conditions),
                )
            )

    def execute(
        self, segments: Dict[str, PreparedSegment], stats: Optional[OperatorStats] = None
    ) -> List[Row]:
        """Join ``segments`` (table name → prepared segment) and return rows."""
        missing = [table for table in self._step_tables if table not in segments]
        if missing:
            raise ExecutionError(f"missing segments for tables: {missing}")
        return self.execute_ordered(
            [segments[table] for table in self._step_tables], stats
        )

    def execute_ordered(
        self,
        segments: Sequence[PreparedSegment],
        stats: Optional[OperatorStats] = None,
    ) -> List[Row]:
        """Join ``segments`` given one prepared segment per plan step, in order.

        The single-subplan reference: :meth:`execute_batch` returns exactly
        these rows, in this order, for each of its combinations.
        """
        if len(segments) != len(self._step_tables):
            raise ExecutionError(
                f"expected one segment per plan step ({len(self._step_tables)}), "
                f"got {len(segments)}"
            )
        stats = stats if stats is not None else OperatorStats()
        current: List[JoinedRow] = list(zip(segments[0].rows))
        for depth in range(1, len(segments)):
            if not current:
                return []
            # Every probe row increments the counter exactly once.
            stats.tuples_probed += len(current)
            slot_keys, build_columns = self._step_keys[depth - 1]
            current = probe_hash_table(
                segments[depth].hash_table(build_columns), current, slot_keys
            )
        stats.tuples_output += len(current)
        return materialise_rows(current)

    def execute_batch(
        self, batch: Batch, prepared: Mapping[str, PreparedSegment]
    ) -> List[List[Row]]:
        """Join every pending combination of ``batch``, whose lists are in
        plan order; ``prepared`` maps each segment id to its segment.

        The product is walked as the trie it is, a level at a time: the rows
        joined over positions ``0..d`` are computed once for every
        combination below them, a subtree with nothing pending is skipped on
        one ``find`` over its flags, and one whose intermediate is empty
        without visiting a combination.  Returns the non-empty row lists in
        id order, each exactly :meth:`execute_ordered`'s rows for its
        combination (a level is the same function of prefix rows and segment
        however many combinations share the prefix); a combination left out
        has no rows there either.
        """
        lists = batch.lists
        if len(lists) != len(self._step_tables):
            raise ExecutionError(
                f"expected {len(self._step_tables)} segment lists, got {len(lists)}"
            )
        if len(lists) == 1:
            # Nothing to join: a single-table plan's rows are the segment's own.
            pending = compress(lists[0], batch.flags)
            return [rows for segment_id in pending if (rows := prepared[segment_id].rows)]
        pending_at = batch.flags.find
        #: Per live node of the level above, in id order: where its subtree's
        #: flags start, and its joined rows.
        live: List[Tuple[int, List[JoinedRow]]] = [(0, [])]
        stride = len(batch.flags)
        for depth, segments in enumerate(lists):
            stride //= len(segments) or 1
            # The first position has no rows to probe with, and no keys.
            slot_keys, build_columns = self._step_keys[depth - 1] if depth else ((), ())
            below: List[Tuple[int, List[JoinedRow]]] = []
            for start, rows in live:
                for segment_id in segments:
                    if pending_at(1, start, start + stride) >= 0:
                        segment = prepared[segment_id]
                        if depth:
                            # A built, non-empty table costs a lookup, not a frame.
                            table = segment.hash_tables.get(build_columns)
                            joined = probe_hash_table(
                                table or segment.hash_table(build_columns), rows, slot_keys
                            )
                        else:
                            joined = list(zip(segment.rows))
                        if joined:
                            below.append((start, joined))
                    start += stride
            live = below
        return [materialise_rows(joined) for _, joined in live]
