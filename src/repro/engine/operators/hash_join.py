"""In-memory equi hash join: the one build/probe kernel and its operator.

A joined row is a :data:`JoinedRow`: the tuple of the base rows that produced
it, one row dict per joined input (its *slots*), probe side first and each
build side appended.  Base rows are shared by reference and a match costs one
tuple concatenation; :func:`materialise_rows` is the only place a merged row
dict is built, and a chain of joins calls it once, on what the top join emits.

:func:`build_hash_table` and :func:`probe_hash_table` are the repo's only
join loops: :class:`HashJoin` here and ``PreparedSegment.hash_table`` /
``NAryJoin`` in :mod:`repro.core.njoin` both call them, so the two
executors cannot drift apart on

* **order** — output rows come in probe order, the matches of one probe row
  in build order (the goldens' float ``sum`` digests depend on it);
* **NULL keys** — a key with a ``None`` component matches nothing, the
  None-compares-false rule of ``Comparison("=", ...)``;
* **a missing key column** — :class:`~repro.exceptions.ExecutionError`.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.engine.operators.base import Operator, Row
from repro.exceptions import ExecutionError

#: One base row per joined input, probe side first.
JoinedRow = Tuple[Row, ...]
#: Join key (bare value for one column, tuple for several) → the build rows
#: with that key, each as a 1-tuple ready to be appended, in insertion order.
HashTable = Dict[object, List[JoinedRow]]


def build_hash_table(rows: Sequence[Row], key_columns: Sequence[str]) -> HashTable:
    """Hash ``rows`` on ``key_columns``, leaving out rows with a ``None`` in the key."""
    table: HashTable = defaultdict(list)
    key_of = itemgetter(*key_columns)
    multi_column = len(key_columns) > 1
    try:
        for row in rows:
            key = key_of(row)
            if key is not None and not (multi_column and None in key):
                table[key].append((row,))
    except KeyError as exc:
        raise ExecutionError(f"join key column missing from row: {exc}") from None
    return table


def probe_hash_table(
    table: HashTable, joined_rows: Sequence[JoinedRow], slot_keys: Sequence[Tuple[int, str]]
) -> List[JoinedRow]:
    """Append to each joined row its matches in a :func:`build_hash_table` table.

    ``slot_keys`` are the probe-side ``(slot, column)`` of the columns the
    table was built on.  A probe key containing ``None`` needs no check of
    its own: the table holds no such key.
    """
    table_get = table.get
    output: List[JoinedRow] = []
    append = output.append
    try:
        if len(slot_keys) == 1:
            ((slot, column),) = slot_keys
            for joined in joined_rows:
                matches = table_get(joined[slot][column])
                if matches:
                    for match in matches:
                        append(joined + match)
        else:
            # Key tuples built a column at a time: one comprehension per key
            # column of the batch, not one per probe row.
            key_columns = [
                [joined[slot][column] for joined in joined_rows] for slot, column in slot_keys
            ]
            for joined, matches in zip(joined_rows, map(table_get, zip(*key_columns))):
                if matches:
                    for match in matches:
                        append(joined + match)
    except KeyError as exc:
        raise ExecutionError(f"join key column missing from row: {exc}") from None
    return output


def materialise_rows(joined_rows: Sequence[JoinedRow]) -> List[Row]:
    """Merge each joined row into one row dict, as ``{**build, **probe}`` nests.

    Columns come rightmost slot first and the leftmost slot's value wins; a
    column two slots disagree on is an :class:`ExecutionError`.
    """
    output: List[Row] = []
    for joined in joined_rows:
        merged: Row = {}
        for row in reversed(joined):
            merged.update(row)
        if len(merged) != sum(map(len, joined)):
            # Overlapping columns: only legal when every slot agrees on the value.
            for row in joined:
                for column, value in row.items():
                    if merged[column] != value:
                        raise ExecutionError(
                            f"column {column!r} appears on both join sides with different values"
                        )
        output.append(merged)
    return output


class HashJoin(Operator):
    """Classic build/probe equi-join over the shared kernel.

    The build side's batch is hashed on ``build_keys`` and the probe side's
    probed against it (order and NULL rule: module docstring; a row with a
    ``None`` key still counts as built / probed).  A probe child that is
    itself a :class:`HashJoin` hands over its joined rows, so a left-deep
    chain builds row dicts once, at the top.  Column names are assumed
    globally unique (TPC-H style prefixes), so merging never drops data; a
    collision with differing values raises :class:`ExecutionError`.
    """

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
    ) -> None:
        super().__init__()
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise ExecutionError("hash join requires matching, non-empty key lists")
        self.build = build
        self.probe = probe
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)

    def children(self) -> List[Operator]:
        return [self.build, self.probe]

    def rows(self) -> List[Row]:
        return materialise_rows(self._joined_rows())

    def _joined_rows(self) -> List[JoinedRow]:
        build_rows = self.build.rows()
        table = build_hash_table(build_rows, self.build_keys)
        probe = self.probe
        probe_rows: List[JoinedRow] = (
            probe._joined_rows() if isinstance(probe, HashJoin) else list(zip(probe.rows()))
        )
        # Each key's slot is the leftmost one holding the column, read off the
        # first joined row; a column in no slot fails in the probe.
        first = probe_rows[0] if probe_rows else ()
        slot_keys = [
            (next((slot for slot, row in enumerate(first) if column in row), 0), column)
            for column in self.probe_keys
        ]
        output = probe_hash_table(table, probe_rows, slot_keys)
        self.stats.tuples_built += len(build_rows)
        self.stats.tuples_probed += len(probe_rows)
        self.stats.tuples_output += len(output)
        return output
