"""N-ary join over the cached segments of a batch of subplans.

The MJoin state manager decides *when* subplans are runnable; this module
decides which hash table each left-deep step probes and in which slot of the
joined row each probe column lives.  The paper's MJoin is a symmetric hash
join with one hash table per relation, and so is this: every cached segment
of a plan position after the first is merged into that position's *relation
table*, and a :class:`~repro.core.subplan.Batch` — a product of cached
segments — is joined with one probe per level, whatever the number of
segments at it.  Each match carries its segment's contribution to the
subplan id (a joined row is ``(row, offset, row, offset, ...)``), so a
full-depth row says which combination it belongs to.  The build and probe
loops and the row-dict builder are the pull-based engine's
(:mod:`repro.engine.operators.hash_join`), so both executors order,
NULL-handle and fail identically; intermediates are tuples and only a
full-depth result of a pending combination is materialised into row dicts.
A segment's own table is built on first use and memoised on the cached
entry: hash tables are built as objects arrive and the join merely probes
them.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.subplan import Batch
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.operators.hash_join import (
    build_hash_table,
    materialise_rows,
    probe_hash_table,
)
from repro.engine.planner import QueryPlan
from repro.engine.query import Query
from repro.exceptions import ExecutionError

#: One ``row, offset`` pair per joined input, probe side first: the base row
#: and what its segment adds to the subplan id.  The rows are ``joined[::2]``,
#: the id of the combination that produced them ``sum(joined[1::2])``.
TaggedRow = Tuple[Any, ...]
#: Join key → the ``(row, offset)`` matches with that key.  A bucket is never
#: changed in place, so a relation table may share a segment's own bucket.
TaggedTable = Dict[object, List[TaggedRow]]


class PreparedSegment:
    """A fetched segment after filtering, ready to be joined.

    ``rows`` is the segment's selection as
    :func:`~repro.engine.operators.scan.select_rows` returns it — the list the
    segment itself keeps and every other reader of the object shares — so it
    is read, never mutated.  ``offset`` is what the segment adds to the id
    of every subplan it takes part in (``SubplanTracker.offset_of``), fixed
    before the first table is built.  ``hash_tables`` maps a tuple of key column names to the
    segment's :func:`~repro.engine.operators.hash_join.build_hash_table`
    table on them, every match tagged with ``offset``; tables are built on
    first use and reused across all subplans that touch the segment.
    """

    __slots__ = ("segment_id", "table_name", "rows", "offset", "hash_tables")

    def __init__(
        self, segment_id: str, table_name: str, rows: List[Row], offset: int = 0
    ) -> None:
        self.segment_id = segment_id
        self.table_name = table_name
        self.rows = rows
        self.offset = offset
        self.hash_tables: Dict[Tuple[str, ...], TaggedTable] = {}

    def hash_table(self, key_columns: Tuple[str, ...]) -> TaggedTable:
        """Return (building if necessary) the hash table on ``key_columns``."""
        table = self.hash_tables.get(key_columns)
        if table is None:
            tag = (self.offset,)
            table = self.hash_tables[key_columns] = {
                key: [match + tag for match in matches]
                for key, matches in build_hash_table(self.rows, key_columns).items()
            }
        return table


class NAryJoin:
    """Joins one prepared segment per relation following a left-deep order."""

    def __init__(self, query: Query, plan: QueryPlan) -> None:
        self.query = query
        self.plan = plan
        if plan.steps and {step.table for step in plan.steps} != set(query.tables):
            raise ExecutionError("plan does not cover the query's tables")
        if not all(step.conditions for step in plan.steps[1:]):
            raise ExecutionError("every plan step after the first needs a join condition")
        #: Table names in plan order, and per probe step the probe side's
        #: (slot, column) keys and the build side's key columns — both depend
        #: only on the plan, so deriving them once here keeps them out of the
        #: per-batch loop.  The row of the table at position ``p`` sits in
        #: slot ``2 * p`` of a :data:`TaggedRow`.
        self._step_tables: Tuple[str, ...] = tuple(step.table for step in plan.steps)
        position_of = {table: position for position, table in enumerate(self._step_tables)}
        self._step_keys: List[Tuple[Tuple[Tuple[int, str], ...], Tuple[str, ...]]] = []
        for depth, step in enumerate(plan.steps[1:], start=1):
            others = [condition.other(step.table) for condition in step.conditions]
            if not all(position_of.get(other, depth) < depth for other in others):
                raise ExecutionError(f"plan joins {step.table!r} to a table not yet joined")
            self._step_keys.append(
                (
                    tuple(
                        (2 * position_of[other], condition.column_for(other))
                        for other, condition in zip(others, step.conditions)
                    ),
                    tuple(condition.column_for(step.table) for condition in step.conditions),
                )
            )
        #: Per table after the first: the key columns its hash tables are on.
        self._build_columns: Dict[str, Tuple[str, ...]] = {
            table: build_columns
            for table, (_, build_columns) in zip(self._step_tables[1:], self._step_keys)
        }

    def execute_ordered(
        self,
        segments: Sequence[PreparedSegment],
        stats: Optional[OperatorStats] = None,
    ) -> List[Row]:
        """Join ``segments`` given one prepared segment per plan step, in order.

        The single-subplan reference the tests hold :meth:`execute_batch` to:
        it returns exactly these rows, in this order, for each of its
        combinations.
        """
        if len(segments) != len(self._step_tables):
            raise ExecutionError(
                f"expected one segment per plan step ({len(self._step_tables)}), "
                f"got {len(segments)}"
            )
        stats = stats if stats is not None else OperatorStats()
        current: List[TaggedRow] = list(zip(segments[0].rows, repeat(segments[0].offset)))
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
        return materialise_rows([joined[::2] for joined in current])

    # ------------------------------------------------------------------ #
    # The per-relation tables
    # ------------------------------------------------------------------ #
    def relation_tables(self) -> Dict[str, TaggedTable]:
        """An empty relation table, by table name, for every table after the
        plan's first (a single-table plan has none), for :meth:`merge` to fill."""
        return {table: {} for table in self._step_tables[1:]}

    def merge(self, table: TaggedTable, segment: PreparedSegment) -> None:
        """Add ``segment``'s matches to its relation's ``table``, after those
        already there: a segment's matches keep their order."""
        own = segment.hash_table(self._build_columns[segment.table_name])
        for key, matches in own.items():
            merged = table.get(key)
            table[key] = merged + matches if merged else matches

    def unmerge(self, table: TaggedTable, segment: PreparedSegment) -> None:
        """Take a merged ``segment``'s matches out of its relation's ``table``
        again, leaving no empty bucket behind."""
        own = segment.hash_table(self._build_columns[segment.table_name])
        offset = segment.offset
        for key in own:
            # Segments of one table have distinct offsets.
            rest = [match for match in table[key] if match[1] != offset]
            if rest:
                table[key] = rest
            else:
                del table[key]

    def execute_batch(
        self,
        batch: Batch,
        prepared: Mapping[str, PreparedSegment],
        tables: Mapping[str, TaggedTable],
    ) -> List[List[Row]]:
        """Join every pending combination of ``batch``, whose lists are in
        plan order.  ``prepared`` maps the segment ids of the pending
        combinations to their segments, whose offsets add up to the batch's
        ids; ``tables`` holds, by table name and for every position after the
        first where the batch has several segments, a relation table with all
        of them merged in.

        One probe per level: the rows of the first position's segments, one
        segment after the other, are probed against each later position's
        relation table — or its one segment's own table — and each full-depth
        row's offsets add up to the id of its combination.  Rows of a
        combination that is not pending are dropped, the others collected
        per combination in the order they came out, which within one
        combination is the order of :meth:`execute_ordered`: a level is the
        same function of probe rows and one segment's matches whatever else
        shares the table.  Returns the non-empty row lists in id order, each
        exactly :meth:`execute_ordered`'s rows for its combination; a
        combination left out has no rows there either.
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
        current: List[TaggedRow] = []
        if batch.num_pending:
            for segment_id in lists[0]:
                # A segment with nothing pending may not have been fetched.
                segment = prepared.get(segment_id)
                if segment is not None:
                    current += zip(segment.rows, repeat(segment.offset))
        for depth in range(1, len(lists)):
            if not current:
                break
            slot_keys, build_columns = self._step_keys[depth - 1]
            segments = lists[depth]
            if len(segments) == 1:
                # A built, non-empty table costs a lookup, not a frame.
                segment = prepared[segments[0]]
                table = segment.hash_tables.get(build_columns) or segment.hash_table(build_columns)
            else:
                table = tables[self._step_tables[depth]]
            current = probe_hash_table(table, current, slot_keys)
        if not current:
            return []
        # The ids are ascending, so the collected lists come in id order.
        collected: Dict[int, List[TaggedRow]] = {
            subplan_id: [] for subplan_id in compress(batch.ids, batch.flags)
        }
        for joined in current:
            rows = collected.get(sum(joined[1::2]))
            if rows is not None:
                rows.append(joined[::2])
        return [materialise_rows(rows) for rows in collected.values() if rows]
