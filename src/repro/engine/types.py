"""Column data types and value helpers."""

from __future__ import annotations

import datetime
from enum import Enum
from typing import Union

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


def date_to_ordinal(value: Union[str, datetime.date]) -> int:
    """Convert an ISO date string or :class:`datetime.date` to an ordinal."""
    if isinstance(value, datetime.date):
        return value.toordinal()
    try:
        return datetime.date.fromisoformat(value).toordinal()
    except ValueError as exc:
        raise SchemaError(f"invalid ISO date: {value!r}") from exc
