"""Unit tests for the date helpers."""

import datetime

import pytest

from repro.engine import date_to_ordinal
from repro.exceptions import SchemaError


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
