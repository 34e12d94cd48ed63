"""Static per-tenant client descriptions for multi-tenant experiments.

A :class:`ClientSpec` is the one description of a tenant the service layer
works from: it is validated here, at construction, and a session holds it
as-is (``session.spec``) for its whole connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.cache import EvictionPolicy
from repro.core.execution import MODE_SKIPPER, Mode
from repro.engine.query import Query
from repro.exceptions import ConfigurationError
from repro.spec_fields import PositiveInt, Seconds, Spec


@dataclass
class ClientSpec(Spec):
    """Static description of one database client in a cluster experiment."""

    client_id: str
    queries: Sequence[Query]
    mode: Mode = MODE_SKIPPER
    repetitions: PositiveInt = 1
    #: Read by Skipper clients only, which need at least one slot.
    cache_capacity: int = 30
    eviction_policy: Optional[EvictionPolicy] = None
    enable_pruning: bool = True
    start_delay: Seconds = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.queries:
            raise ConfigurationError(f"client {self.client_id!r} has no queries to run")
        if self.mode == MODE_SKIPPER and self.cache_capacity < 1:
            raise ConfigurationError(
                f"client {self.client_id!r}: cache_capacity must be >= 1 for a "
                f"Skipper client, got {self.cache_capacity!r}"
            )
