"""The public query-service façade.

This package is the one entry point client code programs against:

* :class:`StorageService` — owns the backend (single CSD or sharded fleet),
  the catalogs and the simulation clock; hands out sessions and drives runs.
* :class:`Session` — a per-tenant connection; ``session.submit(query)``
  returns a :class:`QueryHandle` immediately, queries run sequentially per
  session.
* :class:`QueryHandle` — future-like: ``.status``, submit/queue/start/finish
  timestamps, ``.result()``.
* :class:`AdmissionConfig` / :class:`AdmissionController` — per-tenant and
  global in-flight caps with a bounded queue; overflow is **queued** and,
  past the queue, **rejected** with a typed
  :class:`~repro.exceptions.AdmissionError`.

Quickstart::

    from repro.service import ClientSpec, ClusterConfig, StorageService, workloads

    tpch = workloads.tpch
    catalog = tpch.build_catalog("tiny", seed=42)
    config = ClusterConfig(client_specs=[ClientSpec("t0", queries=[tpch.q12()])])
    service = StorageService(config, catalog=catalog)
    session = service.open_session("t0")
    handle = session.submit(tpch.q12())
    service.run()
    print(handle.result().execution_time)

The legacy batch entry point (``repro.cluster.Cluster``) has been retired;
the experiment harness (:mod:`repro.harness`, the layer above this one) runs
through the façade.  For convenience the façade also re-exports the workload
generators.
"""

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig, ClusterResult
from repro.core.execution import QueryResult
from repro.engine.executor import canonical_rows
from repro.exceptions import AdmissionError, ServiceError, SessionClosedError
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionTicket,
)
from repro.service.handles import (
    QueryHandle,
    STATUS_FINISHED,
    STATUS_PENDING,
    STATUS_QUEUED,
    STATUS_REJECTED,
    STATUS_RUNNING,
)
from repro.service.service import StorageService
from repro.service.session import Session

from repro import workloads

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionError",
    "AdmissionTicket",
    "ClientSpec",
    "ClusterConfig",
    "ClusterResult",
    "QueryHandle",
    "QueryResult",
    "STATUS_FINISHED",
    "STATUS_PENDING",
    "STATUS_QUEUED",
    "STATUS_REJECTED",
    "STATUS_RUNNING",
    "ServiceError",
    "Session",
    "SessionClosedError",
    "StorageService",
    "canonical_rows",
    "workloads",
]
