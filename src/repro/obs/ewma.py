"""Exponentially weighted moving averages over simulated-time observations.

The fleet router keeps one :class:`Ewma` per device, fed with observed
request latencies as completions fire; the ``ewma-latency`` replica policy
and the feedback rebalancer read it back.  The class is pure arithmetic
driven entirely by the simulation — no wall clock, no decay-by-elapsed-time
— so routing decisions derived from it are byte-deterministic.

Degenerate reads fail loudly: asking an unsampled EWMA for its value raises
:class:`~repro.exceptions.ConfigurationError` instead of silently returning
0.0 or NaN (callers that want an optimistic cold-start default say so
explicitly via :meth:`Ewma.value_or`).
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError


class Ewma:
    """A fixed-alpha exponentially weighted moving average.

    The first observation initialises the average; each later sample moves
    it by ``alpha * (sample - value)``.  ``alpha`` in (0, 1]: 1.0 degenerates
    to "last sample wins", small values smooth aggressively.
    """

    __slots__ = ("alpha", "count", "average")

    def __init__(self, alpha: float) -> None:
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
            raise ConfigurationError(f"EWMA alpha must be a number, got {alpha!r}")
        if not math.isfinite(alpha) or not 0 < alpha <= 1:
            raise ConfigurationError(f"EWMA alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self.count = 0
        #: The running average as stored: 0.0 before the first sample, so
        #: read it through :attr:`value` or :meth:`value_or`.  The fleet
        #: router folds its later samples in here itself, as
        #: :meth:`observe` does.
        self.average = 0.0

    def observe(self, sample: float) -> float:
        """Fold one sample in; returns the updated average."""
        if not math.isfinite(sample):
            raise ConfigurationError(
                f"EWMA samples must be finite, got {sample!r}"
            )
        if self.count == 0:
            self.average = float(sample)
        else:
            self.average += self.alpha * (sample - self.average)
        self.count += 1
        return self.average

    @property
    def value(self) -> float:
        """The current average; raises with zero observed samples."""
        if self.count == 0:
            raise ConfigurationError(
                "EWMA has zero observed samples; use value_or() for an "
                "explicit cold-start default"
            )
        return self.average

    def value_or(self, default: float) -> float:
        """The current average, or ``default`` with zero samples."""
        return self.average if self.count else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.average if self.count else None
        return f"<Ewma alpha={self.alpha} count={self.count} value={shown}>"
