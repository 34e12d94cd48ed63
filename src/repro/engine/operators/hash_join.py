"""In-memory equi hash join: the one build/probe kernel and its operator.

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
from typing import Dict, List, Sequence

from repro.engine.operators.base import Operator, Row
from repro.exceptions import ExecutionError

#: Join key (bare value for one column, tuple for several) → build rows
#: with that key, in insertion order.
HashTable = Dict[object, List[Row]]


def build_hash_table(rows: Sequence[Row], key_columns: Sequence[str]) -> HashTable:
    """Hash ``rows`` on ``key_columns``, leaving out rows with a ``None`` in the key."""
    table: HashTable = defaultdict(list)
    key_of = itemgetter(*key_columns)
    multi_column = len(key_columns) > 1
    try:
        for row in rows:
            key = key_of(row)
            if key is not None and not (multi_column and None in key):
                table[key].append(row)
    except KeyError as exc:
        raise ExecutionError(f"join key column missing from row: {exc}") from None
    return table


def probe_hash_table(
    table: HashTable, probe_rows: Sequence[Row], key_columns: Sequence[str]
) -> List[Row]:
    """Merge each probe row with its matches in a :func:`build_hash_table` table.

    ``key_columns`` are the probe-side names of the columns the table was
    built on.  A probe key containing ``None`` needs no check of its own:
    the table holds no such key.
    """
    table_get = table.get
    key_of = itemgetter(*key_columns)
    output: List[Row] = []
    append = output.append
    try:
        for row in probe_rows:
            matches = table_get(key_of(row))
            if matches:
                for match in matches:
                    append(merge_rows(match, row))
    except KeyError as exc:
        raise ExecutionError(f"join key column missing from row: {exc}") from None
    return output


class HashJoin(Operator):
    """Classic build/probe equi-join over the shared kernel.

    The build side's batch is hashed on ``build_keys`` and the probe side's
    probed against it (order and NULL rule: module docstring; a row with a
    ``None`` key still counts as built / probed).  Column names are assumed
    globally unique (TPC-H style prefixes), so merging two rows never drops
    data; a collision with differing values raises :class:`ExecutionError`.
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
        build_rows = self.build.rows()
        table = build_hash_table(build_rows, self.build_keys)
        probe_rows = self.probe.rows()
        output = probe_hash_table(table, probe_rows, self.probe_keys)
        self.stats.tuples_built += len(build_rows)
        self.stats.tuples_probed += len(probe_rows)
        self.stats.tuples_output += len(output)
        return output


def merge_rows(left: Row, right: Row) -> Row:
    """Merge two row dictionaries, checking for conflicting duplicates."""
    merged = {**left, **right}
    if len(merged) != len(left) + len(right):
        # Overlapping keys: only legal when both sides agree on the value.
        for key, value in right.items():
            if key in left and left[key] != value:
                raise ExecutionError(
                    f"column {key!r} appears on both join sides with different values"
                )
    return merged
