"""Execute a :class:`ScenarioSpec` through the service façade.

The runner is the only place that turns declarative scenario data into live
objects: it builds the catalogs for every workload the scenario references,
resolves layout/scheduler names, derives each tenant's start delay from the
arrival pattern, runs a
:class:`~repro.service.service.StorageService` to completion, validates the
run with the invariant checker and condenses the measurements into a
canonical :class:`~repro.scenarios.report.ScenarioReport`.
:func:`run_one` runs a registered scenario by name for the command line,
capturing its error instead of raising it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig, ClusterResult
from repro.cluster.metrics import jain_fairness, mean, percentile
from repro.csd.device import DeviceConfig
from repro.csd.layout import (
    ClientsPerGroupLayout,
    LayoutPolicy,
    RoundRobinObjectLayout,
    SkewedLayout,
)
from repro.csd.scheduler import IOScheduler, RankBasedScheduler, SlackFCFSScheduler
from repro.engine.catalog import Catalog
from repro.engine.query import Query
from repro.exceptions import ReproError, ScenarioError
from repro.fleet.report import report_sections
from repro.scenarios.invariants import check_invariants
from repro.scenarios.registry import get_scenario
from repro.scenarios.report import ClientReport, ScenarioReport
from repro.scenarios.spec import KNOWN_WORKLOADS, ScenarioSpec, split_query_ref
from repro.service.service import StorageService
from repro.workloads import mrbench, nref, ssb, tpch

#: Workload modules by scenario-spec prefix.  Each exposes ``build_catalog``
#: (merging into an existing catalog) and ``query(name)``.
WORKLOAD_MODULES = {"tpch": tpch, "ssb": ssb, "mrbench": mrbench, "nref": nref}


def build_layout(spec: ScenarioSpec) -> LayoutPolicy:
    """Resolve the spec's layout name + parameter into a policy object
    (the spec admits only :data:`~repro.scenarios.spec.KNOWN_LAYOUTS`)."""
    param = spec.layout_param
    if spec.layout == "tenant-colocated":
        # One group per tenant in each device's layout over its placement
        # subset; migrated keys join it (``extend_layout_with_keys``).
        return ClientsPerGroupLayout(1)
    if spec.layout == "clients-per-group":
        return ClientsPerGroupLayout(param[0] if param else 1)
    if spec.layout == "round-robin":
        if not param:
            raise ScenarioError(
                f"scenario {spec.name!r}: round-robin layout needs layout_param "
                "(number of groups)"
            )
        return RoundRobinObjectLayout(param[0])
    # The last known name: "skewed".
    if not param:
        raise ScenarioError(
            f"scenario {spec.name!r}: skewed layout needs layout_param "
            "(clients per group)"
        )
    return SkewedLayout(list(param))


def build_scheduler(spec: ScenarioSpec) -> IOScheduler:
    """Resolve the spec's scheduler name + parameter into a policy object
    (the spec admits only :data:`~repro.scenarios.spec.KNOWN_SCHEDULERS`)."""
    param = spec.scheduler_param
    if spec.scheduler == "slack-fcfs":
        return SlackFCFSScheduler(int(param)) if param is not None else SlackFCFSScheduler()
    # The last known name: "rank-based".
    if param is not None:
        return RankBasedScheduler(fairness_constant=param)
    return RankBasedScheduler()


def build_catalog(spec: ScenarioSpec) -> Catalog:
    """Build one catalog holding every workload the scenario references.

    Each workload gets a distinct derived seed (as the paper's mixed-workload
    experiment does), offset by the workload's fixed position in
    :data:`~repro.scenarios.spec.KNOWN_WORKLOADS` — not by its position in
    this scenario — so adding or reordering tenants never perturbs the data
    of the workloads already present.
    """
    catalog: Catalog = Catalog()
    for workload in spec.workloads():
        module = WORKLOAD_MODULES[workload]
        offset = KNOWN_WORKLOADS.index(workload)
        module.build_catalog(spec.scale, seed=spec.seed + offset, catalog=catalog)
    return catalog


def resolve_query(reference: str) -> Query:
    """Turn ``"workload:query"`` into a :class:`~repro.engine.query.Query`."""
    workload, query_name = split_query_ref(reference)
    return WORKLOAD_MODULES[workload].query(query_name)


def build_cluster_config(spec: ScenarioSpec) -> ClusterConfig:
    """Materialise the spec's tenants, arrivals and device knobs into a config.

    Each distinct query reference is resolved once, so every tenant naming
    it runs the same :class:`~repro.engine.query.Query` — the same predicate
    object per table — and a stored object is filtered once per predicate
    for the whole service, not once per delivery (the segment keeps its
    last selection, :func:`~repro.engine.operators.scan.select_rows`).
    """
    rng = random.Random(spec.seed)
    delays = spec.arrival.delays(len(spec.tenants), rng)
    queries = {
        reference: resolve_query(reference)
        for reference in dict.fromkeys(
            reference for tenant in spec.tenants for reference in tenant.queries
        )
    }
    client_specs = [
        ClientSpec(
            client_id=tenant.tenant_id,
            queries=[queries[reference] for reference in tenant.queries],
            mode=tenant.mode,
            repetitions=tenant.repetitions,
            cache_capacity=tenant.cache_capacity,
            start_delay=delay,
        )
        for tenant, delay in zip(spec.tenants, delays)
    ]
    return ClusterConfig(
        client_specs=client_specs,
        layout_policy=build_layout(spec),
        device_config=DeviceConfig(
            group_switch_seconds=spec.switch_seconds,
            transfer_seconds_per_object=spec.transfer_seconds,
        ),
        fleet_spec=spec.fleet,
    )


class ScenarioRunner:
    """Runs scenario specs deterministically and emits canonical reports."""

    def __init__(self, check: bool = True) -> None:
        #: Whether to run the invariant checker after each scenario.
        self.check = check

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def build_service(self, spec: ScenarioSpec) -> StorageService:
        """Materialise the spec into a ready-to-run storage service."""
        return StorageService(spec)

    def run(self, spec: ScenarioSpec) -> ScenarioReport:
        """Run ``spec`` to completion, validate it and report the metrics."""
        return self._run(spec)[1]

    def run_traced(self, spec: ScenarioSpec) -> Tuple[ScenarioReport, str]:
        """Run ``spec`` with tracing on; returns the report + trace JSON.

        A spec with ``trace=False`` is transparently re-materialised with
        tracing enabled, so CLI callers can trace any registered scenario.
        """
        from repro.obs.export import build_trace, trace_to_json

        service, report = self._run(replace(spec, trace=True))
        return report, trace_to_json(build_trace(service, scenario=spec.name))

    def _run(self, spec: ScenarioSpec) -> Tuple[StorageService, ScenarioReport]:
        service = self.build_service(spec)
        result = service.run()
        checked: List[str] = []
        if self.check:
            checked = check_invariants(service, result)
        return service, self._build_report(spec, service, result, checked)

    # ------------------------------------------------------------------ #
    # Report assembly
    # ------------------------------------------------------------------ #
    def _build_report(
        self,
        spec: ScenarioSpec,
        service: StorageService,
        result: ClusterResult,
        checked: Sequence[str],
    ) -> ScenarioReport:
        clients: Dict[str, ClientReport] = {}
        spec_by_client = {
            client_spec.client_id: client_spec for client_spec in result.config.client_specs
        }
        for client_id, query_results in result.results_by_client.items():
            times = [query_result.execution_time for query_result in query_results]
            # A tenant whose every query was shed by admission control ran
            # nothing; its latency distribution degenerates to zeros.
            clients[client_id] = ClientReport(
                mode=spec_by_client[client_id].mode,
                start_delay=spec_by_client[client_id].start_delay,
                queries_run=len(query_results),
                requests=sum(query_result.num_requests for query_result in query_results),
                total_time=sum(times),
                mean_time=mean(times),
                min_time=min(times) if times else 0.0,
                max_time=max(times) if times else 0.0,
                p50_time=percentile(times, 0.50) if times else 0.0,
                p95_time=percentile(times, 0.95) if times else 0.0,
            )

        breakdown = result.average_breakdown()
        per_client_means = [report.mean_time for report in clients.values()]
        schedulers = [device.scheduler for device in service.devices]
        fleet_sections = (
            report_sections(service.controller, result.total_simulated_time)
            if service.controller is not None
            else {}
        )
        return ScenarioReport(
            scenario=spec.name,
            seed=spec.seed,
            spec=spec.to_dict(),
            clients=clients,
            device_switches=result.device_switches,
            scheduler_switches=sum(scheduler.num_switches for scheduler in schedulers),
            max_waiting_seen=max(scheduler.max_waiting_seen for scheduler in schedulers),
            objects_served=result.device_objects_served,
            total_simulated_time=result.total_simulated_time,
            cumulative_time=result.cumulative_execution_time(),
            mean_time=result.average_execution_time(),
            fairness_jain=jain_fairness(per_client_means),
            breakdown={
                "processing": breakdown.processing,
                "switch_wait": breakdown.switch_wait,
                "transfer_wait": breakdown.transfer_wait,
                "other_wait": breakdown.other_wait,
            },
            cache=self._cache_stats(result),
            invariants_checked=list(checked),
            admission=result.admission,
            **fleet_sections,
        )

    @staticmethod
    def _cache_stats(result: ClusterResult) -> Dict[str, float]:
        hits = 0
        insertions = 0
        peak = 0
        for query_results in result.results_by_client.values():
            for query_result in query_results:
                hits += query_result.cache_hits
                insertions += query_result.cache_insertions
                peak = max(peak, query_result.cache_peak_occupancy)
        lookups = hits + insertions
        return {
            "hits": float(hits),
            "insertions": float(insertions),
            "peak_occupancy": float(peak),
            "hit_rate": hits / lookups if lookups else 0.0,
        }


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of running one scenario: its report JSON or an error.

    ``wall_seconds`` is real elapsed time, not simulated time; it is
    reported by ``--check`` for timing visibility but never diffed (wall
    time is machine-dependent, unlike every serialized metric).
    """

    name: str
    report_json: Optional[str]
    error: Optional[str]
    simulated_time: Optional[float]
    wall_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_one(name: str) -> ScenarioOutcome:
    """Run the registered scenario ``name``; a :class:`ReproError` becomes
    the outcome's ``error``, so a caller running many goes on to the next."""
    started = time.perf_counter()
    try:
        report = ScenarioRunner().run(get_scenario(name))
    except ReproError as error:
        return ScenarioOutcome(
            name=name,
            report_json=None,
            error=str(error),
            simulated_time=None,
            wall_seconds=time.perf_counter() - started,
        )
    return ScenarioOutcome(
        name=name,
        report_json=report.to_json(),
        error=None,
        simulated_time=report.total_simulated_time,
        wall_seconds=time.perf_counter() - started,
    )
