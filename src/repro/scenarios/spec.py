"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serializable description of one
multi-tenant experiment: who the tenants are, which queries they run (by
workload-qualified name such as ``"tpch:q12"``), when they arrive, and every
device / layout / scheduler / cache knob.  Specs are pure data — resolving
them into live objects is the :class:`~repro.scenarios.runner.ScenarioRunner`'s
job — so the same spec can be rerun, diffed and stored alongside its golden
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.execution import MODE_SKIPPER, MODE_VANILLA
from repro.exceptions import ScenarioError, is_count, is_time
from repro.fleet.spec import FleetSpec
from repro.scenarios.arrivals import ArrivalPattern, SimultaneousArrival
from repro.service.admission import AdmissionConfig

#: Workload-qualified query names look like ``"tpch:q12"`` or ``"ssb:q1_1"``.
KNOWN_WORKLOADS = ("tpch", "ssb", "mrbench", "nref")

#: Layout policy names resolvable by the runner.
KNOWN_LAYOUTS = (
    "all-in-one",
    "clients-per-group",
    "incremental",
    "round-robin",
    "skewed",
    "tenant-colocated",
)

#: Scheduler policy names resolvable by the runner.
KNOWN_SCHEDULERS = (
    "object-fcfs",
    "slack-fcfs",
    "query-fcfs",
    "max-queries",
    "rank-based",
)


def split_query_ref(reference: str) -> Tuple[str, str]:
    """Split ``"workload:query"`` into its parts, validating the workload."""
    workload, separator, query_name = reference.partition(":")
    if not separator or not workload or not query_name:
        raise ScenarioError(
            f"query references must look like 'workload:query', got {reference!r}"
        )
    if workload not in KNOWN_WORKLOADS:
        raise ScenarioError(
            f"unknown workload {workload!r} in {reference!r}; "
            f"expected one of {sorted(KNOWN_WORKLOADS)}"
        )
    return workload, query_name


@dataclass(frozen=True)
class TenantSpec:
    """One tenant in a scenario: identity, queries and executor knobs."""

    tenant_id: str
    queries: Tuple[str, ...]
    mode: str = MODE_SKIPPER
    repetitions: int = 1
    cache_capacity: int = 30
    enable_pruning: bool = True

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ScenarioError("tenant_id must be non-empty")
        if self.mode not in (MODE_SKIPPER, MODE_VANILLA):
            raise ScenarioError(f"tenant {self.tenant_id!r}: unknown mode {self.mode!r}")
        if not self.queries:
            raise ScenarioError(f"tenant {self.tenant_id!r} has no queries")
        for reference in self.queries:
            split_query_ref(reference)
        if self.repetitions <= 0:
            raise ScenarioError(
                f"tenant {self.tenant_id!r}: repetitions must be positive, "
                f"got {self.repetitions}"
            )
        if self.cache_capacity <= 0:
            raise ScenarioError(
                f"tenant {self.tenant_id!r}: cache_capacity must be positive, "
                f"got {self.cache_capacity}"
            )

    def workloads(self) -> List[str]:
        """Distinct workloads referenced by this tenant (stable order)."""
        seen: List[str] = []
        for reference in self.queries:
            workload, _query = split_query_ref(reference)
            if workload not in seen:
                seen.append(workload)
        return seen

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant_id": self.tenant_id,
            "queries": list(self.queries),
            "mode": self.mode,
            "repetitions": self.repetitions,
            "cache_capacity": self.cache_capacity,
            "enable_pruning": self.enable_pruning,
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully declarative multi-tenant experiment."""

    name: str
    description: str
    tenants: Tuple[TenantSpec, ...]
    arrival: ArrivalPattern = field(default_factory=SimultaneousArrival)
    scale: str = "tiny"
    seed: int = 42
    layout: str = "clients-per-group"
    #: Meaning depends on the layout: clients per group ("clients-per-group"),
    #: number of groups ("round-robin"), or the per-group client counts
    #: ("skewed").  Ignored by "all-in-one" and "incremental".
    layout_param: Optional[Tuple[int, ...]] = None
    scheduler: str = "rank-based"
    #: Fairness constant K of the rank-based policy / slack of slack-FCFS.
    scheduler_param: Optional[float] = None
    switch_seconds: float = 10.0
    transfer_seconds: float = 9.6
    #: When set, the scenario runs against a sharded multi-device fleet
    #: (placement, replication lifecycle — R changes, read-repair, throttled
    #: rebalance I/O — and optional mid-run device failures) instead of the
    #: single shared CSD.
    fleet: Optional[FleetSpec] = None
    #: When set, queries pass through the service façade's admission
    #: controller (in-flight caps, bounded queue, typed rejections).  ``None``
    #: disables admission and reproduces the legacy batch behaviour exactly.
    admission: Optional[AdmissionConfig] = None
    #: When true, the service records an end-to-end trace of the run
    #: (admission → routing → device → operators) exportable with
    #: ``--trace``.  Off by default; the untraced event sequence — and hence
    #: every golden report — is unaffected either way.
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if not self.tenants:
            raise ScenarioError(f"scenario {self.name!r} has no tenants")
        tenant_ids = [tenant.tenant_id for tenant in self.tenants]
        if len(set(tenant_ids)) != len(tenant_ids):
            raise ScenarioError(f"scenario {self.name!r}: tenant ids must be unique")
        if not is_count(self.seed):
            raise ScenarioError(
                f"scenario {self.name!r}: seed must be a positive integer, got {self.seed!r}"
            )
        if self.layout not in KNOWN_LAYOUTS:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown layout {self.layout!r}; "
                f"expected one of {sorted(KNOWN_LAYOUTS)}"
            )
        if self.scheduler not in KNOWN_SCHEDULERS:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown scheduler {self.scheduler!r}; "
                f"expected one of {sorted(KNOWN_SCHEDULERS)}"
            )
        for label, value in (
            ("switch_seconds", self.switch_seconds),
            ("transfer_seconds", self.transfer_seconds),
            ("scheduler_param", 0 if self.scheduler_param is None else self.scheduler_param),
        ):
            if not is_time(value):
                raise ScenarioError(
                    f"scenario {self.name!r}: {label} must be finite and "
                    f"non-negative, got {value!r}"
                )
        if self.layout_param is not None:
            if not self.layout_param or not all(map(is_count, self.layout_param)):
                raise ScenarioError(
                    f"scenario {self.name!r}: layout_param must be a tuple of "
                    f"positive integers, got {self.layout_param!r}"
                )
        if self.fleet is not None and not isinstance(self.fleet, FleetSpec):
            raise ScenarioError(
                f"scenario {self.name!r}: fleet must be a FleetSpec or None, "
                f"got {self.fleet!r}"
            )
        if self.admission is not None and not isinstance(self.admission, AdmissionConfig):
            raise ScenarioError(
                f"scenario {self.name!r}: admission must be an AdmissionConfig "
                f"or None, got {self.admission!r}"
            )
        if not isinstance(self.trace, bool):
            raise ScenarioError(
                f"scenario {self.name!r}: trace must be a bool, got {self.trace!r}"
            )
        if (
            self.scheduler == "slack-fcfs"
            and self.scheduler_param is not None
            and (self.scheduler_param != int(self.scheduler_param) or self.scheduler_param < 1)
        ):
            raise ScenarioError(
                f"scenario {self.name!r}: slack-fcfs scheduler_param is a slack "
                f"count and must be an integer >= 1, got {self.scheduler_param!r}"
            )

    def workloads(self) -> List[str]:
        """Distinct workloads referenced by any tenant (stable order)."""
        seen: List[str] = []
        for tenant in self.tenants:
            for workload in tenant.workloads():
                if workload not in seen:
                    seen.append(workload)
        return seen

    def to_dict(self) -> Dict[str, object]:
        """Serializable description of the spec (embedded in reports).

        ``trace`` is only emitted when enabled, so the reports (and goldens)
        of untraced runs are byte-identical to the pre-tracing schema.
        """
        document: Dict[str, object] = {
            "name": self.name,
            "description": self.description,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "arrival": self.arrival.to_dict(),
            "scale": self.scale,
            "seed": self.seed,
            "layout": self.layout,
            "layout_param": list(self.layout_param) if self.layout_param else None,
            "scheduler": self.scheduler,
            "scheduler_param": self.scheduler_param,
            "switch_seconds": self.switch_seconds,
            "transfer_seconds": self.transfer_seconds,
            # Transfers are always serialized; the key keeps the report schema.
            "concurrent_transfers": False,
            "fleet": self.fleet.to_dict() if self.fleet is not None else None,
            "admission": self.admission.to_dict() if self.admission is not None else None,
        }
        if self.trace:
            document["trace"] = True
        return document


def uniform_tenants(
    count: int,
    query: str,
    mode: str = MODE_SKIPPER,
    repetitions: int = 1,
    cache_capacity: int = 30,
    prefix: str = "tenant",
) -> Tuple[TenantSpec, ...]:
    """Convenience builder: ``count`` identical tenants running ``query``."""
    if count <= 0:
        raise ScenarioError(f"tenant count must be positive, got {count!r}")
    return tuple(
        TenantSpec(
            tenant_id=f"{prefix}{index}",
            queries=(query,),
            mode=mode,
            repetitions=repetitions,
            cache_capacity=cache_capacity,
        )
        for index in range(count)
    )
