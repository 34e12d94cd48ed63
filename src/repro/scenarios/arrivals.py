"""Tenant arrival patterns.

A scenario describes *when* each tenant starts issuing queries relative to
the start of the simulation.  Patterns are declarative and deterministic:
given the number of tenants and a seeded :class:`random.Random`, a pattern
produces the same start delays every time, which is what makes scenario
reports reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Union

from repro.exceptions import ScenarioError
from repro.spec_fields import PositiveInt, PositiveSeconds, Seconds, Spec


class ArrivalPattern(Spec, error=ScenarioError):
    """Base class: map ``num_tenants`` to a list of start delays (seconds).

    A pattern serialises as its ``kind`` plus its fields."""

    #: Registry key used in serialized scenario specs.
    kind = "base"

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        """Start delay of each tenant, in tenant order."""
        raise NotImplementedError


@dataclass(frozen=True)
class SimultaneousArrival(ArrivalPattern):
    """Every tenant starts at time zero (the shape of the paper's figures)."""

    kind = "simultaneous"

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        return [0.0] * num_tenants


@dataclass(frozen=True)
class UniformArrival(ArrivalPattern):
    """Tenants start at fixed intervals: 0, gap, 2*gap, ..."""

    kind = "uniform"

    gap_seconds: Seconds

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        return [index * self.gap_seconds for index in range(num_tenants)]


@dataclass(frozen=True)
class BurstyArrival(ArrivalPattern):
    """Tenants arrive in bursts: ``burst_size`` tenants near-simultaneously,
    then a long quiet gap before the next burst.

    Within a burst each tenant gets a small random jitter so request streams
    interleave at the device rather than arriving in lockstep.
    """

    kind = "bursty"

    burst_size: PositiveInt
    burst_gap_seconds: PositiveSeconds
    jitter_seconds: Seconds = 1.0

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        result: List[float] = []
        for index in range(num_tenants):
            burst = index // self.burst_size
            jitter = rng.uniform(0.0, self.jitter_seconds) if self.jitter_seconds else 0.0
            result.append(burst * self.burst_gap_seconds + jitter)
        return result


@dataclass(frozen=True)
class PoissonArrival(ArrivalPattern):
    """Tenants arrive as a Poisson process with the given mean inter-arrival
    gap (exponential gaps, cumulative start times)."""

    kind = "poisson"

    mean_gap_seconds: PositiveSeconds

    def delays(self, num_tenants: int, rng: random.Random) -> List[float]:
        result: List[float] = []
        clock = 0.0
        for _ in range(num_tenants):
            result.append(clock)
            clock += rng.expovariate(1.0 / self.mean_gap_seconds)
        return result


#: The one ``ScenarioSpec.arrival``: a pattern of one of the four kinds.
Arrival = Union[SimultaneousArrival, UniformArrival, BurstyArrival, PoissonArrival]
