"""Canonical experiment-description and batch-measurement types.

:class:`ClusterConfig` describes one multi-client experiment and
:class:`ClusterResult` holds its measurements; the service façade
(:class:`repro.service.service.StorageService`) runs the one and returns the
other — ``StorageService(config, catalog=...).run()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.client import ClientSpec
from repro.cluster.metrics import ExecutionBreakdown, mean
from repro.core.execution import QueryResult
from repro.csd.device import DeviceConfig
from repro.csd.layout import ClientsPerGroupLayout, LayoutPolicy
from repro.engine.cost import CostModel
from repro.exceptions import ConfigurationError
from repro.fleet.spec import FleetSpec


@dataclass
class ClusterConfig:
    """Configuration of one multi-client experiment."""

    client_specs: Sequence[ClientSpec]
    layout_policy: LayoutPolicy = field(default_factory=ClientsPerGroupLayout)
    device_config: DeviceConfig = field(default_factory=DeviceConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    #: When set, the cluster runs against a sharded multi-device fleet
    #: instead of the paper's single shared CSD.
    fleet_spec: Optional[FleetSpec] = None

    def __post_init__(self) -> None:
        if not self.client_specs:
            raise ConfigurationError("a cluster needs at least one client")
        names = [spec.client_id for spec in self.client_specs]
        if len(set(names)) != len(names):
            raise ConfigurationError("client identifiers must be unique")


@dataclass
class ClusterResult:
    """Everything measured during one cluster run."""

    config: ClusterConfig
    results_by_client: Dict[str, List[QueryResult]]
    breakdowns_by_client: Dict[str, List[ExecutionBreakdown]]
    device_switches: int
    device_objects_served: int
    total_simulated_time: float
    #: Admission-controller summary of the run (``None`` with admission
    #: disabled), so whoever holds only the result sees shed/queued traffic
    #: without reaching into the service.
    admission: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Aggregates used by the figures
    # ------------------------------------------------------------------ #
    def execution_times(self) -> List[float]:
        """Per-query execution times of every client."""
        times: List[float] = []
        for results in self.results_by_client.values():
            times.extend(result.execution_time for result in results)
        return times

    def average_execution_time(self) -> float:
        """Mean query execution time across all clients and repetitions."""
        return mean(self.execution_times())

    def cumulative_execution_time(self) -> float:
        """Sum of all query execution times (Figure 8 / Figure 12b metric)."""
        return sum(self.execution_times())

    def per_client_totals(self) -> Dict[str, float]:
        """Total execution time per client."""
        return {
            client_id: sum(result.execution_time for result in results)
            for client_id, results in self.results_by_client.items()
        }

    def total_get_requests(self) -> int:
        """Total number of GET requests issued across the cluster."""
        return sum(
            result.num_requests
            for results in self.results_by_client.values()
            for result in results
        )

    def average_breakdown(self) -> ExecutionBreakdown:
        """Average switch/transfer/processing breakdown across all queries."""
        breakdowns = [
            breakdown
            for per_client in self.breakdowns_by_client.values()
            for breakdown in per_client
        ]
        if not breakdowns:
            return ExecutionBreakdown(0.0, 0.0, 0.0, 0.0)
        count = len(breakdowns)
        return ExecutionBreakdown(
            processing=sum(b.processing for b in breakdowns) / count,
            switch_wait=sum(b.switch_wait for b in breakdowns) / count,
            transfer_wait=sum(b.transfer_wait for b in breakdowns) / count,
            other_wait=sum(b.other_wait for b in breakdowns) / count,
        )


