"""Deterministic synthetic data generation utilities shared by all workloads."""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping, Sequence, TypeVar

from repro.engine.types import date_to_ordinal
from repro.exceptions import ConfigurationError, EmptyRangeError

T = TypeVar("T")


def lookup(registry: Mapping[str, T], name: str, what: str) -> T:
    """``registry[name]``, or a :class:`ConfigurationError` naming ``what``
    was unknown (e.g. ``"TPC-H scale"``) and the names there are."""
    try:
        return registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {what} {name!r}; expected one of {sorted(registry)}"
        ) from None


@dataclass(frozen=True)
class TableProfile:
    """Size profile of one table: how many segments and rows per segment."""

    num_segments: int
    rows_per_segment: int

    def __post_init__(self) -> None:
        if self.num_segments <= 0:
            raise ConfigurationError("num_segments must be positive")
        if self.rows_per_segment <= 0:
            raise ConfigurationError("rows_per_segment must be positive")

    @property
    def total_rows(self) -> int:
        """Total number of rows the table will contain."""
        return self.num_segments * self.rows_per_segment


@dataclass(frozen=True)
class ScaleProfile:
    """A named collection of table profiles (e.g. the SF-50 equivalent)."""

    name: str
    tables: Mapping[str, TableProfile]

    def profile(self, table: str) -> TableProfile:
        """Profile for ``table`` or raise :class:`ConfigurationError`."""
        try:
            return self.tables[table]
        except KeyError:
            raise ConfigurationError(
                f"scale profile {self.name!r} does not define table {table!r}"
            ) from None


class DataGenerator:
    """Seeded source of per-column *drawers*.

    A drawer is a zero-argument callable built once per column, with its
    range width, bit length or accumulated weights worked out up front; each
    call is one draw.  It makes exactly the calls CPython's ``randint`` /
    ``choice`` / ``uniform`` / ``choices`` / ``random`` make on a
    ``random.Random(seed)``, in the same order, so a column draws the values
    those methods would — in one Python frame instead of three or four.
    Building a drawer draws nothing: values depend only on the order in
    which drawers are *called*.
    """

    def __init__(self, seed: int) -> None:
        source = random.Random(seed)
        self._getrandbits = source.getrandbits
        self._random = source.random

    def integers(self, low: int, high: int) -> Callable[[], int]:
        """Uniform integers in ``[low, high]``: ``randint(low, high)``.

        ``randint`` is ``randrange(low, high + 1)``, which draws
        ``getrandbits(width.bit_length())`` until the value is below the
        width; the width's bit length may exceed 32.
        """
        width = high - low + 1
        if width <= 0:
            raise EmptyRangeError(f"empty range for integers({low}, {high})")
        bits = width.bit_length()
        getrandbits = self._getrandbits

        def draw() -> int:
            value = getrandbits(bits)
            while value >= width:
                value = getrandbits(bits)
            return low + value

        return draw

    def dates(self, start: str, end: str) -> Callable[[], int]:
        """Uniform dates (as ordinals) between two ISO dates, inclusive."""
        low = date_to_ordinal(start)
        high = date_to_ordinal(end)
        if high < low:
            raise EmptyRangeError(f"date range is inverted: {start} .. {end}")
        return self.integers(low, high)

    def decimals(self, low: float, high: float) -> Callable[[], float]:
        """Uniform floats in ``[low, high)`` rounded to two decimals:
        ``round(uniform(low, high), 2)``."""
        width = high - low
        draw_unit = self._random

        def draw() -> float:
            return round(low + width * draw_unit(), 2)

        return draw

    def choices(self, values: Sequence[T]) -> Callable[[], T]:
        """Uniform picks from ``values``: ``choice(values)``."""
        if not values:
            raise EmptyRangeError("cannot choose from an empty sequence")
        count = len(values)
        bits = count.bit_length()
        getrandbits = self._getrandbits

        def draw() -> T:
            index = getrandbits(bits)
            while index >= count:
                index = getrandbits(bits)
            return values[index]

        return draw

    def weighted_choices(
        self, values: Sequence[T], weights: Sequence[float]
    ) -> Callable[[], T]:
        """Weighted picks from ``values``: ``choices(values, weights, k=1)[0]``,
        one ``random()`` bisected into the accumulated weights."""
        cumulative = list(accumulate(weights))
        if len(cumulative) != len(values):
            raise ConfigurationError(
                f"{len(weights)} weights for a population of {len(values)}"
            )
        total = cumulative[-1] + 0.0
        if total <= 0.0:
            raise ConfigurationError(f"weights must total more than zero, got {total}")
        last = len(values) - 1
        draw_unit = self._random

        def draw() -> T:
            return values[bisect(cumulative, draw_unit() * total, 0, last)]

        return draw

    def booleans(self, probability_true: float) -> Callable[[], bool]:
        """Bernoulli draws: ``random() < probability_true``."""
        draw_unit = self._random

        def draw() -> bool:
            return draw_unit() < probability_true

        return draw
