"""Skipper: cold-storage-aware query execution.

A reproduction of *"Cheap Data Analytics using Cold Storage Devices"*
(Borovica-Gajic, Appuswamy, Ailamaki -- VLDB 2016).

The package is organised as follows:

* :mod:`repro.sim` -- discrete-event simulation kernel (simulated time).
* :mod:`repro.engine` -- a small relational engine: schemas, segmented
  relations, predicates, operators, a left-deep planner and a cost model.
* :mod:`repro.csd` -- the Cold Storage Device substrate: object store, disk
  groups, layout policies, I/O schedulers and the device emulator.
* :mod:`repro.core` -- Skipper itself: subplan tracking, the bounded object
  cache with the maximal-progress eviction policy, the cache-aware MJoin
  state manager, the client proxy and the Skipper executor.
* :mod:`repro.vanilla` -- the pull-based baseline ("PostgreSQL on CSD").
* :mod:`repro.cluster` -- experiment configs, batch results and metrics.
* :mod:`repro.service` -- **the public query-service façade**: sessions,
  query handles and admission control over the storage substrate.
* :mod:`repro.fleet` -- sharded multi-device serving behind one interface.
* :mod:`repro.scenarios` -- declarative regression scenarios + goldens.
* :mod:`repro.workloads` -- TPC-H, SSB, analytics-benchmark and NREF-like
  synthetic workloads.
* :mod:`repro.tiering` -- the storage-tiering cost analysis.
* :mod:`repro.model` -- the paper's closed-form performance models.
* :mod:`repro.harness` -- one function per table/figure of the paper.

Quickstart (see :mod:`repro.service` for the session API)::

    from repro.harness import experiments

    results = experiments.figure7_skipper_scaling(client_counts=(1, 3, 5), scale="small")
    print(results)
"""

from repro.exceptions import (
    AdmissionError,
    CacheError,
    CatalogError,
    ConfigurationError,
    ExecutionError,
    LayoutError,
    PlanningError,
    QueryError,
    ReproError,
    SchedulingError,
    SchemaError,
    ServiceError,
    SessionClosedError,
    SimulationError,
    StorageError,
)

__version__ = "1.1.0"

__all__ = [
    "AdmissionError",
    "CacheError",
    "CatalogError",
    "ConfigurationError",
    "ExecutionError",
    "LayoutError",
    "PlanningError",
    "QueryError",
    "ReproError",
    "SchedulingError",
    "SchemaError",
    "ServiceError",
    "SessionClosedError",
    "SimulationError",
    "StorageError",
    "__version__",
]
