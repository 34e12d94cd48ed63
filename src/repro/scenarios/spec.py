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
from typing import Dict, List, Literal, Optional, Tuple, get_args

from repro.core.execution import MODE_SKIPPER, Mode
from repro.exceptions import ScenarioError
from repro.fleet.spec import FleetSpec
from repro.scenarios.arrivals import Arrival, SimultaneousArrival
from repro.service.admission import AdmissionConfig
from repro.spec_fields import Count, PositiveInt, Seconds, Spec

#: Workload-qualified query names look like ``"tpch:q12"`` or ``"ssb:q1_1"``.
KNOWN_WORKLOADS = ("tpch", "ssb", "mrbench", "nref")

#: Layout policy names resolvable by the runner.
Layout = Literal[
    "all-in-one",
    "clients-per-group",
    "incremental",
    "round-robin",
    "skewed",
    "tenant-colocated",
]
KNOWN_LAYOUTS = get_args(Layout)

#: Scheduler policy names resolvable by the runner.
Scheduler = Literal[
    "object-fcfs",
    "slack-fcfs",
    "query-fcfs",
    "max-queries",
    "rank-based",
]
KNOWN_SCHEDULERS = get_args(Scheduler)


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
class TenantSpec(Spec, error=ScenarioError):
    """One tenant in a scenario: identity, queries and executor knobs."""

    tenant_id: str
    queries: Tuple[str, ...]
    mode: Mode = MODE_SKIPPER
    repetitions: PositiveInt = 1
    cache_capacity: PositiveInt = 30
    enable_pruning: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tenant_id:
            raise ScenarioError("tenant_id must be non-empty")
        if not self.queries:
            raise ScenarioError(f"tenant {self.tenant_id!r} has no queries")
        for reference in self.queries:
            split_query_ref(reference)

    def workloads(self) -> List[str]:
        """Distinct workloads referenced by this tenant (stable order)."""
        seen: List[str] = []
        for reference in self.queries:
            workload, _query = split_query_ref(reference)
            if workload not in seen:
                seen.append(workload)
        return seen


@dataclass(frozen=True)
class ScenarioSpec(Spec, error=ScenarioError):
    """A fully declarative multi-tenant experiment."""

    name: str
    description: str
    tenants: Tuple[TenantSpec, ...]
    arrival: Arrival = field(default_factory=SimultaneousArrival)
    scale: str = "tiny"
    seed: PositiveInt = 42
    layout: Layout = "clients-per-group"
    #: Meaning depends on the layout: clients per group ("clients-per-group"),
    #: number of groups ("round-robin"), or the per-group client counts
    #: ("skewed").  Ignored by "all-in-one" and "incremental".
    layout_param: Optional[Tuple[PositiveInt, ...]] = None
    scheduler: Scheduler = "rank-based"
    #: Fairness constant K of the rank-based policy / slack of slack-FCFS.
    scheduler_param: Optional[Seconds] = None
    switch_seconds: Seconds = 10.0
    transfer_seconds: Seconds = 9.6
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
        super().__post_init__()
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if not self.tenants:
            raise ScenarioError(f"scenario {self.name!r} has no tenants")
        tenant_ids = [tenant.tenant_id for tenant in self.tenants]
        if len(set(tenant_ids)) != len(tenant_ids):
            raise ScenarioError(f"scenario {self.name!r}: tenant ids must be unique")
        if self.layout_param == ():
            raise ScenarioError(f"scenario {self.name!r}: layout_param must not be empty")
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
        document = super().to_dict()
        # Transfers are always serialized; the key keeps the report schema.
        document["concurrent_transfers"] = False
        if not self.trace:
            del document["trace"]
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
    if not Count().accepts(count):
        raise ScenarioError(f"tenant count must be {Count().expected}, got {count!r}")
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
