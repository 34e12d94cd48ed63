"""Static per-tenant client descriptions for multi-tenant experiments.

A :class:`ClientSpec` is the one description of a tenant the service layer
works from: it is validated here, at construction, and a session holds it
as-is (``session.spec``) for its whole connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.cache import EvictionPolicy
from repro.core.execution import MODE_SKIPPER, MODE_VANILLA
from repro.engine.query import Query
from repro.exceptions import ConfigurationError


@dataclass
class ClientSpec:
    """Static description of one database client in a cluster experiment."""

    client_id: str
    queries: Sequence[Query]
    mode: str = MODE_SKIPPER
    repetitions: int = 1
    cache_capacity: int = 30
    eviction_policy: Optional[EvictionPolicy] = None
    enable_pruning: bool = True
    start_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SKIPPER, MODE_VANILLA):
            raise ConfigurationError(f"unknown client mode: {self.mode!r}")
        if self.repetitions <= 0:
            raise ConfigurationError("repetitions must be positive")
        if not self.queries:
            raise ConfigurationError(f"client {self.client_id!r} has no queries to run")
        if self.mode == MODE_SKIPPER and self.cache_capacity <= 0:
            raise ConfigurationError(
                f"client {self.client_id!r}: cache_capacity must be positive, "
                f"got {self.cache_capacity}"
            )
        if not math.isfinite(self.start_delay) or self.start_delay < 0:
            raise ConfigurationError("start_delay must be finite and non-negative")
