"""The storage-service façade: the one public entry point for running queries.

:class:`StorageService` owns everything one deployment needs — the simulation
environment, the object store loaded with every tenant's segments, the
storage backend (the paper's single shared CSD or a sharded
:class:`~repro.fleet.router.FleetRouter`), an optional
:class:`~repro.service.admission.AdmissionController` — and hands out
per-tenant :class:`~repro.service.session.Session` objects through which
queries are submitted::

    service = StorageService(config, catalog=catalog)   # or StorageService(scenario_spec)
    session = service.open_session("tenant0")
    handle = session.submit(query)
    result = service.run()          # drives the simulation to completion
    print(handle.result().execution_time)

The façade replaced the legacy batch harness (``Cluster.run()``), whose
deprecated shims have since been retired.  With no admission controller
configured, a batch run through the façade is event-for-event identical to
the legacy harness, which the golden-metrics suite pins.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig, ClusterResult
from repro.cluster.metrics import ExecutionBreakdown, attribute_waiting_batch
from repro.csd.device import ColdStorageDevice
from repro.csd.object_store import ObjectStore
from repro.csd.request import GetRequest
from repro.csd.scheduler import IOScheduler, RankBasedScheduler
from repro.engine.catalog import Catalog
from repro.exceptions import ConfigurationError, ServiceError
from repro.fleet.controller import FleetController
from repro.fleet.router import FleetRouter
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.handles import QueryHandle
from repro.service.session import Session
from repro.sim import Environment


class StorageService:
    """A long-lived query service over the simulated storage substrate.

    ``spec_or_config`` is either a declarative
    :class:`~repro.scenarios.spec.ScenarioSpec` (the catalog, layout,
    scheduler, arrival delays and admission knobs are materialised from it)
    or a :class:`~repro.cluster.cluster.ClusterConfig` plus an explicit
    ``catalog``.  ``scheduler_factory`` is called once per device (once for
    the single CSD) and overrides the spec's scheduler.
    """

    def __init__(
        self,
        spec_or_config: Union[ClusterConfig, object],
        *,
        catalog: Optional[Catalog] = None,
        scheduler_factory: Optional[Callable[[], IOScheduler]] = None,
        admission: Optional[AdmissionConfig] = None,
        trace: Optional[bool] = None,
    ) -> None:
        if isinstance(spec_or_config, ClusterConfig):
            if catalog is None:
                raise ConfigurationError(
                    "StorageService(ClusterConfig) needs an explicit catalog"
                )
            config = spec_or_config
        else:
            # Deferred import: the scenario layer builds on the service layer.
            from repro.scenarios.spec import ScenarioSpec

            if not isinstance(spec_or_config, ScenarioSpec):
                raise ConfigurationError(
                    "StorageService expects a ScenarioSpec or a ClusterConfig, "
                    f"got {type(spec_or_config).__name__}"
                )
            from repro.scenarios.runner import (
                build_catalog,
                build_cluster_config,
                build_scheduler,
            )

            spec = spec_or_config
            if catalog is None:
                catalog = build_catalog(spec)
            config = build_cluster_config(spec)
            if scheduler_factory is None:
                # Every device of a fleet gets its own scheduler instance, so
                # the scheduler is resolved as a factory.
                scheduler_factory = lambda: build_scheduler(spec)  # noqa: E731
            if admission is None:
                admission = spec.admission
            if trace is None:
                trace = spec.trace

        self.catalog = catalog
        self.config = config
        self.cost_model = config.cost_model
        self.env = Environment()
        self.object_store = ObjectStore()
        #: Service-wide catalogue every component publishes its counters
        #: into; ``metrics.to_dict()`` is the snapshot.
        self.metrics = MetricsRegistry()
        self.metrics.publish("sim", self.env, {"events_dispatched": "dispatched"})
        #: Simulated-time tracer; the shared no-op singleton when disabled,
        #: so the off path costs one (false) attribute check per hook.
        self.tracer = Tracer(self.env) if trace else NULL_TRACER

        client_objects: Dict[str, List[str]] = {}
        for spec_ in config.client_specs:
            keys: List[str] = []
            for table in self._tables_used_by(spec_):
                relation = catalog.relation(table)
                keys.extend(
                    self.object_store.put_segment(spec_.client_id, segment.segment_id, segment)
                    for segment in relation.segments
                )
            client_objects[spec_.client_id] = keys

        factory = scheduler_factory or RankBasedScheduler
        if config.fleet_spec is not None:
            # Sharded mode: N devices behind a router, each with its own
            # layout (built over its placement subset) and scheduler.
            self.fleet: Optional[FleetRouter] = FleetRouter(
                env=self.env,
                object_store=self.object_store,
                client_objects=client_objects,
                fleet_spec=config.fleet_spec,
                layout_policy=config.layout_policy,
                scheduler_factory=factory,
                device_config=config.device_config,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            #: The fleet's control plane (failures, membership events,
            #: rebalancer), built over the finished router before any session.
            self.controller: Optional[FleetController] = FleetController(self.fleet)
            self.device = None
            self.layout = None
            self.scheduler = None
            backend = self.fleet
        else:
            self.fleet = None
            self.controller = None
            self.scheduler = factory()
            self.layout = config.layout_policy.build(client_objects)
            self.device = ColdStorageDevice(
                env=self.env,
                object_store=self.object_store,
                layout=self.layout,
                scheduler=self.scheduler,
                config=config.device_config,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            backend = self.device
        #: What sessions actually talk to: the single device or the fleet router.
        self.backend = backend
        #: Admission controller, or ``None`` when admission is disabled.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self.env, admission, metrics=self.metrics)
            if admission is not None
            else None
        )
        self._specs_by_tenant = {spec_.client_id: spec_ for spec_ in config.client_specs}
        #: Sessions currently accepting submissions, by tenant.
        self._active_sessions: Dict[str, Session] = {}
        #: Every session ever opened, in creation order.
        self._sessions: List[Session] = []
        self._ran = False

    @staticmethod
    def _tables_used_by(spec: ClientSpec) -> List[str]:
        """Tables referenced by any query of one client (stable order)."""
        tables: List[str] = []
        for query in spec.queries:
            for table in query.tables:
                if table not in tables:
                    tables.append(table)
        return tables

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    @property
    def sessions(self) -> List[Session]:
        """Every session opened on this service, in creation order."""
        return list(self._sessions)

    def open_session(self, tenant_id: str) -> Session:
        """Open a session for ``tenant_id``.

        The tenant must be declared in the cluster config / scenario spec
        (that is what loads its segments onto the backend); the session runs
        in the mode and with the cache, eviction policy, pruning switch and
        start delay of the tenant's declared :class:`ClientSpec`.  A tenant
        can hold at most one open session at a time.
        """
        if self._ran:
            raise ServiceError("the service has already run; no further sessions")
        spec = self._specs_by_tenant.get(tenant_id)
        if spec is None:
            raise ServiceError(
                f"unknown tenant {tenant_id!r}; tenants are declared (with "
                "their datasets) in the cluster config or scenario spec: "
                f"{sorted(self._specs_by_tenant)}"
            )
        existing = self._active_sessions.get(tenant_id)
        if existing is not None and not existing.closed:
            raise ServiceError(
                f"tenant {tenant_id!r} already has an open session; close it "
                "before opening another"
            )
        session = Session(self, spec)
        self._active_sessions[tenant_id] = session
        self._sessions.append(session)
        return session

    def submit_workload(self) -> Dict[str, List[QueryHandle]]:
        """Open a session per configured client and submit its whole workload.

        This is the batch shape of the legacy harness: every tenant's
        ``repetitions x queries`` are queued up front and the sessions are
        closed, so :meth:`run` drives everything to completion.
        """
        handles: Dict[str, List[QueryHandle]] = {}
        for spec in self.config.client_specs:
            session = self.open_session(spec.client_id)
            for _repetition in range(spec.repetitions):
                for query in spec.queries:
                    session.submit(query)
            session.close()
            handles[spec.client_id] = list(session.handles)
        return handles

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> ClusterResult:
        """Drive the simulation until every submitted query has resolved.

        With no sessions opened yet, the configured batch workload is
        submitted first (legacy ``Cluster.run()`` semantics).  All sessions
        are closed before running; a service runs exactly once.
        """
        if self._ran:
            raise ServiceError("the service has already run")
        if not self._sessions:
            self.submit_workload()
        self._ran = True
        for session in self._sessions:
            session.close()
        try:
            self.env.run(self.env.all_of([session.process for session in self._sessions]))
        except Exception:
            # A crashed fleet failure/membership process starves the sessions
            # and surfaces as an unrelated "ran out of events" error; prefer
            # re-raising the root cause.
            if self.controller is not None:
                self.controller.raise_admin_failure()
            raise
        if self.controller is not None:
            self.controller.raise_admin_failure()

        # A tenant may have held several sessions over the service's lifetime
        # (close, then reopen); its measurements are concatenated in session
        # order.
        results_by_client: Dict[str, List] = {}
        ordered_results: List[Tuple[str, object]] = []
        for session in self._sessions:
            results_by_client.setdefault(session.tenant_id, []).extend(session.results)
            ordered_results.extend(
                (session.tenant_id, result) for result in session.results
            )
        breakdowns = attribute_waiting_batch(
            [result.blocked_intervals for _tenant, result in ordered_results],
            chain.from_iterable(device.busy_intervals for device in self.devices),
            [result.processing_time for _tenant, result in ordered_results],
        )
        breakdowns_by_client: Dict[str, List[ExecutionBreakdown]] = {}
        for (tenant, _result), breakdown in zip(ordered_results, breakdowns):
            breakdowns_by_client.setdefault(tenant, []).append(breakdown)

        stats = self.device_stats()
        return ClusterResult(
            config=self.config,
            results_by_client=results_by_client,
            breakdowns_by_client=breakdowns_by_client,
            device_switches=stats.group_switches,
            device_objects_served=stats.objects_served,
            total_simulated_time=self.env.now,
            admission=(
                self.admission.summary() if self.admission is not None else None
            ),
        )

    # ------------------------------------------------------------------ #
    # Backend introspection / administration
    # ------------------------------------------------------------------ #
    @property
    def membership(self):
        """The fleet's epoch-versioned membership (``None`` single-device).

        Sessions are oblivious to membership changes: they keep talking to
        the router while devices join, leave or fail underneath them.
        """
        return self.fleet.membership if self.fleet is not None else None

    def fleet_epoch(self) -> int:
        """Current fleet membership epoch (0 for single-device services)."""
        return self.fleet.membership.epoch if self.fleet is not None else 0

    @property
    def devices(self) -> List[ColdStorageDevice]:
        """Every device that holds data, in roster order: one entry for the
        paper's single CSD, every member the placement ever put objects on
        (dead and departed ones included) for a fleet.  What the invariant
        checker, the scenario report and the trace exporter iterate, so none
        of them forks on the backend; a device's ``name`` is its fleet id.
        """
        if self.fleet is None:
            return [self.device]
        return [
            member.device for member in self.fleet.members if member.device is not None
        ]

    def device_stats(self):
        """Aggregate device counters (single device or whole fleet)."""
        if self.fleet is not None:
            return self.fleet.device_stats
        return self.device.stats

    def drain_pending(self) -> List[GetRequest]:
        """Pull every not-yet-served GET out of the backend (admin escape hatch).

        On an idle backend this is a no-op returning ``[]``.  The requests
        stay live: ``backend.submit_many(drained)`` puts them back in line.
        """
        return self.backend.drain_pending()
