"""Skipper: the paper's CSD-driven query execution framework.

This package contains the paper's primary contribution:

* :mod:`repro.core.subplan` — subplan enumeration and tracking.  A *subplan*
  is one segment of every joined relation; executing all subplans of a query
  is equivalent to executing the query (Table 2 in the paper).
* :mod:`repro.core.cache` — the bounded object cache and its eviction
  policies, including the paper's *maximal progress* policy and the
  *maximal pending subplans* policy it improves upon, plus LRU/FIFO
  baselines used for ablations.
* :mod:`repro.core.njoin` — the n-ary join: one hash table per relation over
  its cached segments, probed once per level for a whole batch of runnable
  subplans.
* :mod:`repro.core.mjoin` — the cache-aware MJoin *state manager*
  (Algorithm 1): it reacts to out-of-order object arrivals, evicts, executes
  the subplans an arrival makes runnable, folds their output into an
  incremental aggregate and, once a request cycle is delivered, names the
  still-needed objects that are not cached for the next one.
* :mod:`repro.core.client_proxy` — the daemon that mediates between MJoin and
  the CSD, batching object requests and tagging them with query identifiers
  (one per session, as the paper runs one per database instance).
* :mod:`repro.core.execution` — :class:`QueryRun`, the per-query measurement
  loop (query id, processing time, blocked intervals, spans) both executors
  run inside, and :class:`QueryResult`, the one result type they return.
* :mod:`repro.core.executor` — the Skipper strategy on top of it: request
  everything, react to arrivals, re-issue evicted objects cycle by cycle.
"""

from repro.core.subplan import SubplanTracker
from repro.core.cache import (
    CachedObject,
    EvictionPolicy,
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.njoin import NAryJoin
from repro.core.mjoin import MJoinStateManager
from repro.core.client_proxy import ClientProxy
from repro.core.execution import QueryResult, QueryRun
from repro.core.executor import SkipperExecutor

__all__ = [
    "CachedObject",
    "ClientProxy",
    "EvictionPolicy",
    "FIFOEviction",
    "LRUEviction",
    "MJoinStateManager",
    "MaxPendingSubplansEviction",
    "MaxProgressEviction",
    "NAryJoin",
    "ObjectCache",
    "QueryResult",
    "QueryRun",
    "SkipperExecutor",
    "SubplanTracker",
]
