"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration problems from runtime ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is used incorrectly."""


class SchemaError(ReproError):
    """Raised for malformed schemas, unknown columns or type mismatches."""


class CatalogError(ReproError):
    """Raised when a relation or segment cannot be resolved in the catalog."""


class QueryError(ReproError):
    """Raised for malformed query specifications (unknown tables, bad joins)."""


class PlanningError(ReproError):
    """Raised when the planner cannot build a plan for a query."""


class ExecutionError(ReproError):
    """Raised when query execution fails at runtime."""


class StorageError(ReproError):
    """Raised by the object store / CSD substrate (missing objects, etc.)."""


class LayoutError(StorageError):
    """Raised when a data layout policy cannot place objects."""


class SchedulingError(StorageError):
    """Raised when an I/O scheduler is misconfigured."""


class PlacementError(StorageError):
    """Raised when a fleet placement policy cannot place objects."""


class FleetError(StorageError):
    """Raised by the fleet layer (dead replicas, unroutable requests,
    impossible membership changes)."""


class CacheError(ReproError):
    """Raised by the Skipper buffer cache (e.g. capacity too small)."""


class ServiceError(ReproError):
    """Raised for misuse of the query-service façade (sessions, handles)."""


class SessionClosedError(ServiceError):
    """Raised when submitting a query to a session that has been closed."""


class AdmissionError(ServiceError):
    """Raised when admission control rejects a query (caps or queue full)."""


class ConfigurationError(ReproError):
    """Raised for invalid experiment or cost-model configuration."""


def is_time(value: object) -> bool:
    """True when ``value`` is a finite non-negative real (a duration or a
    delay); a bool is an int but not a time, and NaN fails every comparison."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value < float("inf")
    )


def is_count(value: object, minimum: int = 1) -> bool:
    """True when ``value`` is an int of at least ``minimum`` (a positive
    count by default; ``minimum=0`` for an index); a bool is an int but not
    a count, and a float is not one even when whole."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


class ScenarioError(ConfigurationError):
    """Raised for unknown or malformed scenario specifications."""


class InvariantViolation(ReproError):
    """Raised when a scenario run breaks a cross-cutting system invariant."""


class GoldenMismatchError(ReproError):
    """Raised when a scenario report diverges from its committed golden file."""
