"""Table schemas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.engine.types import DataType
from repro.exceptions import SchemaError


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


class TableSchema:
    """Schema of a relation: an ordered list of uniquely-named columns."""

    def __init__(self, name: str, columns: Iterable[Column]) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        columns = list(columns)
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        seen: Dict[str, Column] = {}
        for column in columns:
            if column.name in seen:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            seen[column.name] = column
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name = seen

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        """Whether the schema defines a column called ``name``."""
        return name in self._by_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}])"
