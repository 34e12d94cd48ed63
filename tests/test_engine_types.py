"""Unit tests for data types and date helpers."""

import datetime

import pytest

from repro.engine import DataType, date_to_ordinal
from repro.exceptions import SchemaError


@pytest.mark.parametrize(
    "dtype, good, bad",
    [
        (DataType.INTEGER, 7, "seven"),
        (DataType.FLOAT, 3.25, "pi"),
        (DataType.STRING, "abc", 42),
        (DataType.DATE, 730000, "2001-01-01"),
        (DataType.BOOLEAN, True, 1),
    ],
)
def test_validate_accepts_good_and_rejects_bad(dtype, good, bad):
    dtype.validate(good)
    with pytest.raises(SchemaError):
        dtype.validate(bad)


def test_integer_rejects_bool():
    with pytest.raises(SchemaError):
        DataType.INTEGER.validate(True)


def test_float_accepts_int():
    DataType.FLOAT.validate(10)


def test_none_is_always_valid():
    for dtype in DataType:
        dtype.validate(None)


def test_date_roundtrip():
    ordinal = date_to_ordinal("1994-06-15")
    assert datetime.date.fromordinal(ordinal) == datetime.date(1994, 6, 15)


def test_date_from_date_object():
    assert date_to_ordinal(datetime.date(2000, 1, 1)) == datetime.date(2000, 1, 1).toordinal()


def test_date_rejects_garbage():
    with pytest.raises(SchemaError):
        date_to_ordinal("not-a-date")


def test_date_ordering_matches_calendar_ordering():
    assert date_to_ordinal("1994-01-01") < date_to_ordinal("1995-01-01")
