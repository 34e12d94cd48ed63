"""Tenant arrival patterns.

A scenario describes *when* each tenant starts issuing queries relative to
the start of the simulation.  Patterns are declarative and deterministic:
given the number of tenants and a seeded :class:`random.Random`, a pattern
produces the same start delays every time, which is what makes scenario
reports reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from repro.exceptions import ScenarioError


class ArrivalPattern:
    """Base class: map ``num_tenants`` to a list of start delays (seconds)."""

    #: Registry key used in serialized scenario specs.
    kind = "base"

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        """Start delay of each tenant, in tenant order."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        """Serializable description of this pattern (kind + parameters)."""
        payload: Dict[str, object] = {"kind": self.kind}
        payload.update(
            {key: value for key, value in vars(self).items() if not key.startswith("_")}
        )
        return payload

    @staticmethod
    def _check_positive(name: str, value: float) -> None:
        if not math.isfinite(value) or value <= 0:
            raise ScenarioError(f"{name} must be finite and positive, got {value!r}")

    @staticmethod
    def _check_non_negative(name: str, value: float) -> None:
        if not math.isfinite(value) or value < 0:
            raise ScenarioError(f"{name} must be finite and non-negative, got {value!r}")


class SimultaneousArrival(ArrivalPattern):
    """Every tenant starts at time zero (the shape of the paper's figures)."""

    kind = "simultaneous"

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        return [0.0] * num_tenants


class UniformArrival(ArrivalPattern):
    """Tenants start at fixed intervals: 0, gap, 2*gap, ..."""

    kind = "uniform"

    def __init__(self, gap_seconds: float) -> None:
        self._check_non_negative("gap_seconds", gap_seconds)
        self.gap_seconds = gap_seconds

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        return [index * self.gap_seconds for index in range(num_tenants)]


class BurstyArrival(ArrivalPattern):
    """Tenants arrive in bursts: ``burst_size`` tenants near-simultaneously,
    then a long quiet gap before the next burst.

    Within a burst each tenant gets a small random jitter so request streams
    interleave at the device rather than arriving in lockstep.
    """

    kind = "bursty"

    def __init__(
        self,
        burst_size: int,
        burst_gap_seconds: float,
        jitter_seconds: float = 1.0,
    ) -> None:
        if burst_size <= 0:
            raise ScenarioError(f"burst_size must be positive, got {burst_size!r}")
        self._check_positive("burst_gap_seconds", burst_gap_seconds)
        self._check_non_negative("jitter_seconds", jitter_seconds)
        self.burst_size = burst_size
        self.burst_gap_seconds = burst_gap_seconds
        self.jitter_seconds = jitter_seconds

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        result: List[float] = []
        for index in range(num_tenants):
            burst = index // self.burst_size
            jitter = rng.uniform(0.0, self.jitter_seconds) if self.jitter_seconds else 0.0
            result.append(burst * self.burst_gap_seconds + jitter)
        return result


class PoissonArrival(ArrivalPattern):
    """Tenants arrive as a Poisson process with the given mean inter-arrival
    gap (exponential gaps, cumulative start times)."""

    kind = "poisson"

    def __init__(self, mean_gap_seconds: float) -> None:
        self._check_positive("mean_gap_seconds", mean_gap_seconds)
        self.mean_gap_seconds = mean_gap_seconds

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        result: List[float] = []
        clock = 0.0
        for _ in range(num_tenants):
            result.append(clock)
            clock += rng.expovariate(1.0 / self.mean_gap_seconds)
        return result
