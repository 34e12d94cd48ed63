"""Segmented relations.

The paper stores each relation as a set of 1 GB *segments*, each of which is
one object in the cold storage device.  Here a :class:`Segment` is a columnar
slice of a relation — per-column value arrays with row dictionaries
materialised lazily at result boundaries — and a :class:`Relation` is an
ordered list of segments plus a schema.

``segment.rows`` yields the row dicts the segment was built from (same
values, same key order); predicates with a bulk
:meth:`~repro.engine.predicate.Predicate.selection` path filter a segment over
its column arrays and only materialise the matching rows.

A segment is one stored object that every tenant of a service reads, so it
remembers its last selection — the predicate object and the rows it kept —
for :func:`~repro.engine.operators.scan.select_rows`: tenants sharing one
``Query`` filter each object once, not once per delivery.  Segments and
predicates are immutable, so a selection made once stays right; the rows
are shared between every reader and must never be mutated.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.predicate import Predicate
from repro.engine.schema import TableSchema
from repro.exceptions import SchemaError


class Segment:
    """A horizontal slice of a relation stored as one CSD object.

    Rows are shredded into per-column arrays at construction, so every row
    must have the same keys in the same order (all generated catalogs do;
    anything else raises :class:`SchemaError`).  ``rows`` materialises (and
    caches) the row-dict view on first access.

    ``selected_by`` / ``selected_rows`` are the segment's last selection,
    written only by :func:`~repro.engine.operators.scan.select_rows`: the
    predicate (compared by identity) and the rows it kept.  One entry, so
    alternating between two filters on one table re-filters every time.
    ``selected_rows`` is unset until the first selection: read it only
    after ``selected_by`` matched (a million-object catalog would otherwise
    hold a million empty lists).
    """

    __slots__ = (
        "table_name",
        "index",
        "segment_id",
        "selected_by",
        "selected_rows",
        "_columns",
        "_column_names",
        "_num_rows",
        "_rows",
    )

    selected_rows: List[Dict[str, object]]

    def __init__(self, table_name: str, index: int, rows: Sequence[Dict[str, object]]) -> None:
        if index < 0:
            raise SchemaError(f"segment index must be >= 0, got {index}")
        self.table_name = table_name
        self.index = index
        #: Stable identifier, e.g. ``lineitem.3``.  Precomputed: it is read
        #: on every request/arrival, millions of times per large run.
        self.segment_id = f"{table_name}.{index}"
        self.selected_by: Optional[Predicate] = None
        materialised = rows if isinstance(rows, list) else list(rows)
        self._num_rows = len(materialised)
        self._rows: Optional[List[Dict[str, object]]] = None
        names: Tuple[str, ...] = tuple(materialised[0]) if materialised else ()
        if not all(tuple(row) == names for row in materialised):
            # Located only on failure: the check above runs once per segment
            # build (per query on the pull-based path) and must stay cheap.
            offender = next(
                position
                for position, row in enumerate(materialised)
                if tuple(row) != names
            )
            raise SchemaError(
                f"segment {self.segment_id}: row {offender} has columns "
                f"{tuple(materialised[offender])!r}, expected {names!r} "
                "(every row of a segment must have the same keys in the same order)"
            )
        self._column_names = names
        self._columns: Dict[str, List[object]] = {
            name: [row[name] for row in materialised] for name in names
        }

    @property
    def num_rows(self) -> int:
        """Number of rows stored in the segment."""
        return self._num_rows

    @property
    def columns(self) -> Dict[str, List[object]]:
        """Column-name → value-array view."""
        return self._columns

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Column names in row key order."""
        return self._column_names

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Row-dict view of the segment (materialised once, then cached)."""
        rows = self._rows
        if rows is None:
            names = self._column_names
            if names:
                rows = [dict(zip(names, values)) for values in zip(*self._columns.values())]
            else:
                rows = [{} for _ in range(self._num_rows)]
            self._rows = rows
        return rows

    def filtered_rows(self, predicate: Predicate) -> Optional[List[Dict[str, object]]]:
        """Rows passing ``predicate``, evaluated over the column arrays.

        Returns ``None`` when the predicate shape has no bulk ``selection``
        implementation — the caller then falls back to per-row
        ``predicate.evaluate``, which this path matches exactly, including
        missing-column errors and None-compares-false semantics.  Only the
        matching rows are ever materialised into dicts.  Every call filters
        afresh; :func:`~repro.engine.operators.scan.select_rows` is the
        caller that keeps the result.
        """
        if self._num_rows == 0:
            return []
        selection = predicate.selection(self._columns, self._num_rows)
        if selection is None:
            return None
        if not selection:
            return []
        names = self._column_names
        if not names:
            return [{} for _ in selection]
        cols = list(self._columns.values())
        return [dict(zip(names, [col[i] for col in cols])) for i in selection]

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Segment {self.segment_id} rows={self.num_rows}>"


class Relation:
    """A schema plus an ordered list of segments."""

    def __init__(self, schema: TableSchema, segments: Iterable[Segment]) -> None:
        self.schema = schema
        self.segments: List[Segment] = list(segments)
        for position, segment in enumerate(self.segments):
            if segment.table_name != schema.name:
                raise SchemaError(
                    f"segment {segment.segment_id} does not belong to table {schema.name!r}"
                )
            if segment.index != position:
                raise SchemaError(
                    f"segment indices of {schema.name!r} must be consecutive from 0; "
                    f"found {segment.segment_id} at position {position}"
                )

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: Sequence[Dict[str, object]],
        rows_per_segment: int,
        validate: bool = False,
    ) -> Relation:
        """Split ``rows`` into segments of at most ``rows_per_segment`` rows.

        A relation always has at least one (possibly empty) segment so that
        every table is represented by at least one CSD object.
        """
        if rows_per_segment <= 0:
            raise SchemaError("rows_per_segment must be positive")
        if validate:
            for row in rows:
                schema.validate_row(row)
        segments: List[Segment] = []
        for start in range(0, len(rows), rows_per_segment):
            segments.append(Segment(schema.name, len(segments), rows[start : start + rows_per_segment]))
        if not segments:
            segments.append(Segment(schema.name, 0, []))
        return cls(schema, segments)

    @property
    def name(self) -> str:
        """The relation's (table) name."""
        return self.schema.name

    @property
    def num_segments(self) -> int:
        """Number of segments (CSD objects) making up the relation."""
        return len(self.segments)

    @property
    def num_rows(self) -> int:
        """Total number of rows across all segments."""
        return sum(segment.num_rows for segment in self.segments)

    def segment(self, index: int) -> Segment:
        """Return segment ``index`` or raise :class:`SchemaError`."""
        if not 0 <= index < len(self.segments):
            raise SchemaError(f"table {self.name!r} has no segment {index}")
        return self.segments[index]

    def all_rows(self) -> List[Dict[str, object]]:
        """Materialise all rows of the relation (segment order)."""
        rows: List[Dict[str, object]] = []
        for segment in self.segments:
            rows.extend(segment.rows)
        return rows

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.name} segments={self.num_segments} rows={self.num_rows}>"
