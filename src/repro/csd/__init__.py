"""Cold Storage Device substrate.

This package emulates the storage side of the paper's testbed: an OpenStack
Swift object store extended with a MAID middleware that groups disks into
*disk groups*, keeps only one group spun up at a time, and charges a group
switch latency whenever a request targets a different group.

Components:

* :mod:`repro.csd.object_store` — a Swift-like key/value blob store holding
  one object per relation segment, namespaced per tenant.
* :mod:`repro.csd.disk_group` — disk groups and the layout mapping objects to
  groups.
* :mod:`repro.csd.layout` — the layout policies used in the paper's
  sensitivity study (all-in-one, N clients per group, incremental) plus a
  custom mapping for ad-hoc experiments.
* :mod:`repro.csd.request` — GET requests tagged with client and query
  identifiers (the paper's "semantic" tagging by the client proxy).
* :mod:`repro.csd.scheduler` — the I/O schedulers compared in the paper:
  object-FCFS (what off-the-shelf CSD do), query-FCFS, Max-Queries and the
  rank-based query-aware scheduler Skipper introduces.
* :mod:`repro.csd.ordering` — intra-group object orderings (semantically
  smart round-robin across relations vs. table-major vs. arrival order).
* :mod:`repro.csd.device` — the simulated device itself: a process that
  performs group switches, transfers objects and records busy intervals for
  the metrics layer.
"""

from repro.csd.backend import StorageBackend
from repro.csd.request import GetRequest
from repro.csd.object_store import ObjectStore
from repro.csd.disk_group import DiskGroupLayout
from repro.csd.layout import (
    AllInOneLayout,
    ClientsPerGroupLayout,
    IncrementalLayout,
    LayoutPolicy,
    RoundRobinObjectLayout,
    SkewedLayout,
)
from repro.csd.ordering import (
    ArrivalOrdering,
    IntraGroupOrdering,
    SemanticRoundRobinOrdering,
    TableMajorOrdering,
)
from repro.csd.scheduler import (
    IOScheduler,
    MaxQueriesScheduler,
    ObjectFCFSScheduler,
    QueryFCFSScheduler,
    RankBasedScheduler,
    SlackFCFSScheduler,
)
from repro.csd.device import ColdStorageDevice, DeviceConfig

__all__ = [
    "AllInOneLayout",
    "ArrivalOrdering",
    "ClientsPerGroupLayout",
    "ColdStorageDevice",
    "DeviceConfig",
    "DiskGroupLayout",
    "GetRequest",
    "IOScheduler",
    "IncrementalLayout",
    "IntraGroupOrdering",
    "LayoutPolicy",
    "MaxQueriesScheduler",
    "ObjectFCFSScheduler",
    "ObjectStore",
    "QueryFCFSScheduler",
    "RankBasedScheduler",
    "RoundRobinObjectLayout",
    "SemanticRoundRobinOrdering",
    "SkewedLayout",
    "SlackFCFSScheduler",
    "StorageBackend",
    "TableMajorOrdering",
]
