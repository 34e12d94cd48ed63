"""Deterministic synthetic data generation utilities shared by all workloads."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence, TypeVar

from repro.engine.types import date_to_ordinal
from repro.exceptions import ConfigurationError

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
    """Seeded random helper producing repeatable synthetic rows."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Primitive draws
    # ------------------------------------------------------------------ #
    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]``."""
        return self._random.randint(low, high)

    def decimal(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)`` rounded to two decimals."""
        return round(self._random.uniform(low, high), 2)

    def choice(self, values: Sequence):
        """Uniform choice from ``values``."""
        return self._random.choice(values)

    def weighted_choice(self, values: Sequence, weights: Sequence[float]):
        """Weighted choice from ``values``."""
        return self._random.choices(values, weights=weights, k=1)[0]

    def boolean(self, probability_true: float) -> bool:
        """Bernoulli draw."""
        return self._random.random() < probability_true

    def date_ordinal(self, start: str, end: str) -> int:
        """Uniform date (as ordinal) between two ISO dates, inclusive."""
        low = date_to_ordinal(start)
        high = date_to_ordinal(end)
        if high < low:
            raise ConfigurationError(f"date range is inverted: {start} .. {end}")
        return self._random.randint(low, high)
