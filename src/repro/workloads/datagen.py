"""Deterministic synthetic data generation utilities shared by all workloads."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.engine.types import date_to_ordinal
from repro.exceptions import ConfigurationError


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

    def total_segments(self, tables: Optional[Sequence[str]] = None) -> int:
        """Total number of segments across ``tables`` (default: all)."""
        names = tables if tables is not None else list(self.tables)
        return sum(self.profile(name).num_segments for name in names)


class DataGenerator:
    """Seeded random helper producing repeatable synthetic rows."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def reset(self) -> None:
        """Restart the generator from its seed (fresh deterministic stream)."""
        self._random = random.Random(self.seed)

    # ------------------------------------------------------------------ #
    # Primitive draws
    # ------------------------------------------------------------------ #
    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]``."""
        return self._random.randint(low, high)

    def decimal(self, low: float, high: float, digits: int = 2) -> float:
        """Uniform float in ``[low, high)`` rounded to ``digits`` decimals."""
        return round(self._random.uniform(low, high), digits)

    def choice(self, values: Sequence):
        """Uniform choice from ``values``."""
        return self._random.choice(values)

    def weighted_choice(self, values: Sequence, weights: Sequence[float]):
        """Weighted choice from ``values``."""
        return self._random.choices(values, weights=weights, k=1)[0]

    def boolean(self, probability_true: float = 0.5) -> bool:
        """Bernoulli draw."""
        return self._random.random() < probability_true

    def date_ordinal(self, start: str, end: str) -> int:
        """Uniform date (as ordinal) between two ISO dates, inclusive."""
        low = date_to_ordinal(start)
        high = date_to_ordinal(end)
        if high < low:
            raise ConfigurationError(f"date range is inverted: {start} .. {end}")
        return self._random.randint(low, high)
