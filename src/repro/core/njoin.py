"""Stateless n-ary join over the cached segments of one subplan or a batch.

The MJoin state manager decides *when* subplans are runnable; this module
decides which hash table each left-deep step probes, in which slot of the
joined row each probe column lives, and how a batch shares its prefixes.  The
build and probe loops and the joined-row representation are the pull-based
engine's (:mod:`repro.engine.operators.hash_join`), so both executors order,
NULL-handle and fail identically; intermediates are tuples of base rows and
only a full-depth result is materialised into row dicts.  Tables are built
lazily per (segment, join key) and memoised on the cached entry, mirroring
the paper's design: hash tables are built as objects arrive and the join
merely probes them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
            current = self._probe(current, segments[depth], depth)
        stats.tuples_output += len(current)
        return materialise_rows(current)

    def execute_batch(
        self,
        combinations: Sequence[Tuple[str, ...]],
        prepared: Mapping[str, PreparedSegment],
    ) -> List[List[Row]]:
        """Join every combination of a lexicographically sorted batch.

        ``combinations`` are segment-id tuples in plan order, sorted the way
        the subplan tracker emits them, and ``prepared`` maps each id to its
        segment.  The batch is walked as a trie: ``stack[d]`` holds the joined
        rows after joining positions ``0..d`` of the previous combination, a
        combination sharing its first ``d`` segments with it resumes from
        ``stack[d - 1]`` instead of the first table, and every combination
        under a prefix whose intermediate is empty yields no rows without a
        probe.  Returns one row list per combination, in batch order, each
        equal to what :meth:`execute_ordered` returns for it — same rows,
        same order, because a level is the same function of (prefix rows,
        segment) however the prefix rows were come by.
        """
        depth_count = len(self._step_tables)
        if depth_count == 1:
            # Nothing to join: a single-table plan's rows are the segment's own.
            return [prepared[combination[0]].rows for combination in combinations]
        results: List[List[Row]] = []
        stack: List[List[JoinedRow]] = [[] for _ in range(depth_count)]
        previous: Tuple[str, ...] = ()
        # ``stack[:computed]`` belongs to ``previous``.  The walk stops
        # descending at an empty intermediate, so ``computed < depth_count``
        # means ``stack[computed - 1]`` is empty: a dead prefix.
        computed = 0
        for combination in combinations:
            shared = 0
            while shared < computed and combination[shared] == previous[shared]:
                shared += 1
            if computed and shared == computed < depth_count:
                results.append([])
                continue
            rows = stack[shared - 1] if shared else []
            depth = shared
            while depth < depth_count:
                segment = prepared[combination[depth]]
                rows = self._probe(rows, segment, depth) if depth else list(zip(segment.rows))
                stack[depth] = rows
                depth += 1
                if not rows:
                    break
            previous = combination
            computed = depth
            results.append(materialise_rows(rows) if depth == depth_count else [])
        return results

    def _probe(
        self, current: List[JoinedRow], segment: PreparedSegment, depth: int
    ) -> List[JoinedRow]:
        """One left-deep step: probe ``segment``'s hash table (the table at
        plan position ``depth``) with the rows joined so far."""
        slot_keys, build_columns = self._step_keys[depth - 1]
        return probe_hash_table(segment.hash_table(build_columns), current, slot_keys)
