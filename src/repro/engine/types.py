"""Column data types and value helpers."""

from __future__ import annotations

import datetime
from enum import Enum
from typing import Any, Union

from repro.exceptions import SchemaError


class DataType(Enum):
    """Supported column data types.

    Dates are stored as proleptic-Gregorian ordinals (integers) so that range
    predicates reduce to integer comparisons; :func:`date_to_ordinal`
    converts at the workload boundary.
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOLEAN = "boolean"

    def python_types(self) -> tuple:
        """Python types accepted for values of this data type."""
        if self is DataType.INTEGER:
            return (int,)
        if self is DataType.FLOAT:
            return (int, float)
        if self is DataType.STRING:
            return (str,)
        if self is DataType.DATE:
            return (int,)
        return (bool,)

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` is not valid for this type."""
        if value is None:
            return
        if self is DataType.BOOLEAN:
            if not isinstance(value, bool):
                raise SchemaError(f"expected bool, got {type(value).__name__}")
            return
        if self is DataType.INTEGER and isinstance(value, bool):
            raise SchemaError("booleans are not valid INTEGER values")
        if not isinstance(value, self.python_types()):
            raise SchemaError(
                f"expected {self.value} value, got {type(value).__name__} ({value!r})"
            )


def date_to_ordinal(value: Union[str, datetime.date]) -> int:
    """Convert an ISO date string or :class:`datetime.date` to an ordinal."""
    if isinstance(value, datetime.date):
        return value.toordinal()
    try:
        return datetime.date.fromisoformat(value).toordinal()
    except ValueError as exc:
        raise SchemaError(f"invalid ISO date: {value!r}") from exc
