"""CSD I/O schedulers.

The scheduler decides (1) which disk group to load next, (2) when to switch
(all schedulers here are non-preemptive: a loaded group is drained before
switching, except strict object-FCFS which follows arrival order exactly),
and (3) the order in which objects of the loaded group are returned
(delegated to an :class:`~repro.csd.ordering.IntraGroupOrdering`).

Implemented policies:

* :class:`ObjectFCFSScheduler` — what an off-the-shelf CSD does: requests are
  served strictly in arrival order, oblivious to queries.  This is the
  scheduler behind the vanilla "PostgreSQL-on-CSD" results.
* :class:`QueryFCFSScheduler` — fairness-first: queries are served one at a
  time in arrival order ("fairness" in Figure 12).
* :class:`MaxQueriesScheduler` — efficiency-first: always switch to the group
  with the largest number of queries having pending data ("maxquery").
* :class:`RankBasedScheduler` — the paper's contribution: rank
  ``R(g) = N_g + K * Σ W_q(g)`` balances efficiency and fairness
  ("ranking", K = 1).

A pull-based client has one GET outstanding, so for it a decision and a
switch happen per object: both are one pass over the per-group query index
(no sorted list, key tuple or set copy), with :meth:`RankBasedScheduler.rank`
the readable definition ``tests/scheduler_oracle.py`` holds the pass to.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.csd.ordering import ArrivalOrdering, IntraGroupOrdering, SemanticRoundRobinOrdering
from repro.csd.request import GetRequest
from repro.exceptions import SchedulingError


class IOScheduler:
    """Base class holding the pending-request pool and fairness counters."""

    #: Human-readable policy name (used in experiment reports).
    name = "base"

    def __init__(self, ordering: Optional[IntraGroupOrdering] = None) -> None:
        self.ordering = ordering or SemanticRoundRobinOrdering()
        #: Pending pool per group, keyed by the globally unique request id.
        #: Dicts preserve insertion (arrival) order like the lists they
        #: replaced, but removal by id is O(1) instead of an O(n) scan —
        #: the difference between seconds and minutes at million-request
        #: scale, with identical iteration order everywhere.
        self._pending: Dict[int, Dict[int, GetRequest]] = defaultdict(dict)
        self._queues: Dict[int, Deque[GetRequest]] = {}
        self._dirty: Set[int] = set()
        #: group -> query id -> number of pending requests, maintained
        #: incrementally: what every decision and every switch walks, O(distinct
        #: queries) however many requests are queued.
        self._group_queries: Dict[int, Dict[str, int]] = defaultdict(dict)
        #: query id -> total pending requests across all groups.
        self._query_pending: Dict[str, int] = {}
        #: Number of group switches since each query was last serviced.
        self._waiting: Dict[str, int] = {}
        #: Request id of the first request ever seen per query (arrival order).
        self._query_arrival: Dict[str, int] = {}
        #: Min-heap of ``(request_id, group_id)`` in arrival order, kept only
        #: by the FCFS family (see :class:`_ArrivalIndexedScheduler`).
        self._arrival_heap: Optional[List[Tuple[int, int]]] = None
        self.num_switches = 0
        #: Largest waiting counter any query ever reached (starvation gauge:
        #: the invariant checker bounds this for the rank-based policy).
        self.max_waiting_seen = 0

    # ------------------------------------------------------------------ #
    # Request pool management
    # ------------------------------------------------------------------ #
    def add_request(self, request: GetRequest, group_id: int) -> None:
        """Register a pending request located on ``group_id``."""
        query_id = request.query_id
        self._pending[group_id][request.request_id] = request
        self._dirty.add(group_id)
        group_queries = self._group_queries[group_id]
        group_queries[query_id] = group_queries.get(query_id, 0) + 1
        query_pending = self._query_pending
        total = query_pending.get(query_id)
        if total is None:
            # The query's first pending request: only now can its waiting
            # counter or arrival rank be missing (neither is ever deleted).
            query_pending[query_id] = 1
            self._waiting.setdefault(query_id, 0)
            self._query_arrival.setdefault(query_id, request.request_id)
        else:
            query_pending[query_id] = total + 1
        if self._arrival_heap is not None:
            heappush(self._arrival_heap, (request.request_id, group_id))

    def _note_removed(self, request: GetRequest, group_id: int) -> None:
        """Maintain the query-count indexes after a request leaves the pool."""
        query_id = request.query_id
        group_queries = self._group_queries[group_id]
        remaining = group_queries[query_id] - 1
        if remaining:
            group_queries[query_id] = remaining
        else:
            del group_queries[query_id]
        total = self._query_pending[query_id] - 1
        if total:
            self._query_pending[query_id] = total
        else:
            del self._query_pending[query_id]

    def has_pending(self) -> bool:
        """Whether any request is waiting to be served."""
        return bool(self._query_pending)

    def pending_groups(self) -> List[int]:
        """Groups that currently have pending requests (sorted)."""
        return sorted(group for group, requests in self._pending.items() if requests)

    def pending_count(self, group_id: Optional[int] = None) -> int:
        """Number of pending requests, optionally restricted to one group."""
        if group_id is None:
            return sum(len(requests) for requests in self._pending.values())
        return len(self._pending.get(group_id, ()))

    def queries_on_group(self, group_id: int) -> Set[str]:
        """Distinct query identifiers with pending data on ``group_id``."""
        counts = self._group_queries.get(group_id)
        if not counts:
            return set()
        return set(counts)

    def pending_queries(self) -> Set[str]:
        """Distinct query identifiers with any pending request."""
        return set(self._query_pending)

    def waiting_time(self, query_id: str) -> int:
        """Group switches since ``query_id`` was last serviced."""
        return self._waiting.get(query_id, 0)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def next_request(self, group_id: int) -> Optional[GetRequest]:
        """Pop the next request to serve from ``group_id``."""
        pending = self._pending.get(group_id)
        if not pending:
            return None
        if group_id in self._dirty or not self._queues.get(group_id):
            requests = list(pending.values())
            # A list of one is its own ordering (a pull-based client's every GET).
            if len(requests) > 1:
                requests = self.ordering.order(requests)
            self._queues[group_id] = deque(requests)
            self._dirty.discard(group_id)
        request = self._queues[group_id].popleft()
        del pending[request.request_id]
        self._note_removed(request, group_id)
        return request

    def notify_switch(self, new_group: int) -> None:
        """Record a group switch and update per-query waiting times.

        Queries with pending data on the newly loaded group are (about to be)
        serviced, so their waiting time resets to zero; every other pending
        query has waited one more switch.
        """
        self.num_switches += 1
        waiting = self._waiting
        serviced = self._group_queries.get(new_group, ())
        for query_id in self._query_pending:
            if query_id in serviced:
                waiting[query_id] = 0
            else:
                waiting[query_id] = waited = waiting[query_id] + 1
                if waited > self.max_waiting_seen:
                    self.max_waiting_seen = waited

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    def choose_next_group(self, current_group: Optional[int]) -> int:
        """Pick the group to load next (current group may be returned)."""
        raise NotImplementedError

    def service_quota(self, group_id: int) -> int:
        """How many requests to serve from ``group_id`` before re-deciding.

        The query-aware policies are non-preemptive: once a group is loaded,
        every request that was pending on it at decision time is served
        before the policy is consulted again (requests arriving later compete
        in the next decision, which is what lets the rank-based policy avoid
        starving other tenants).  The FCFS policies re-decide after every
        object.
        """
        return max(1, self.pending_count(group_id))


class _ArrivalIndexedScheduler(IOScheduler):
    """Base for the FCFS-family policies: incremental arrival-order index.

    The FCFS policies re-decide after every served object (or a small slack
    batch of them), and every decision needs the globally oldest pending
    request.  Recomputing that with a scan over the pool is O(pending) per
    decision — quadratic over a request burst, and the dominant cost of the
    vanilla/firmware baselines at million-request scale.  Instead, keep a
    min-heap of ``(request_id, group_id)`` pairs pushed on arrival and
    validated lazily when consulted: entries whose request has already left
    the pool (served, or drained to another device on failover) are
    discarded as they surface.  Each entry is pushed and popped at most
    once, so a decision costs O(log pending) amortised while choosing the
    exact same group as the scan (request ids are unique, so there are no
    ties to break).
    """

    def __init__(self, ordering: Optional[IntraGroupOrdering] = None) -> None:
        super().__init__(ordering=ordering or ArrivalOrdering())
        self._arrival_heap = []

    def _oldest_group(self) -> int:
        """Group of the oldest pending request (lazy-validated heap top)."""
        heap = self._arrival_heap
        pending = self._pending
        while heap:
            request_id, group_id = heap[0]
            requests = pending.get(group_id)
            if requests is not None and request_id in requests:
                return group_id
            heappop(heap)
        raise SchedulingError("choose_next_group called with no pending requests")


class ObjectFCFSScheduler(_ArrivalIndexedScheduler):
    """Strict first-come-first-served at object granularity.

    Models the behaviour of current CSD (and the paper's vanilla baseline):
    the oldest outstanding GET is always served next, regardless of which
    group it lives on, so interleaved clients force a group switch per
    object.
    """

    name = "object-fcfs"

    def service_quota(self, group_id: int) -> int:
        return 1

    def choose_next_group(self, current_group: Optional[int]) -> int:
        return self._oldest_group()


class SlackFCFSScheduler(_ArrivalIndexedScheduler):
    """Object FCFS with a reordering slack (what shipping CSD firmware does).

    The paper notes that current CSD schedule requests in FCFS order "with
    some parameterized slack that occasionally violates the strict FCFS
    ordering by reordering and grouping requests on the same disk group to
    improve performance".  This policy loads the group of the oldest
    outstanding request (FCFS at the head of the queue) but is then allowed
    to serve up to ``slack`` requests from that group — regardless of their
    position in the arrival order — before re-considering.  ``slack=1``
    degenerates to strict object FCFS; a large slack approaches group-at-a-
    time service without any query awareness.
    """

    name = "slack-fcfs"

    def __init__(self, slack: int = 8) -> None:
        super().__init__()
        if slack < 1:
            raise SchedulingError("slack must be at least 1")
        self.slack = slack

    def service_quota(self, group_id: int) -> int:
        return min(self.slack, max(1, len(self._pending.get(group_id, ()))))

    def choose_next_group(self, current_group: Optional[int]) -> int:
        return self._oldest_group()


class QueryFCFSScheduler(IOScheduler):
    """First-come-first-served at query granularity (the "fairness" policy).

    The query whose first pending request arrived earliest is serviced to
    completion before any other query is considered; its objects are fetched
    group by group in the order the query requested them.  Fair, but it
    cannot merge requests of different queries that share a group, so it
    performs more switches than the query-aware policies.
    """

    name = "query-fcfs"

    def service_quota(self, group_id: int) -> int:
        return 1

    def _oldest_query(self) -> str:
        """The pending query whose *first* request arrived earliest."""
        pending = self.pending_queries()
        if not pending:
            raise SchedulingError("no pending requests")
        return min(pending, key=lambda query_id: self._query_arrival.get(query_id, 0))

    def choose_next_group(self, current_group: Optional[int]) -> int:
        query = self._oldest_query()
        best_group: Optional[int] = None
        best_request_id: Optional[int] = None
        for group, requests in self._pending.items():
            for request in requests.values():
                if request.query_id != query:
                    continue
                if best_request_id is None or request.request_id < best_request_id:
                    best_request_id = request.request_id
                    best_group = group
        if best_group is None:  # pragma: no cover - defensive
            raise SchedulingError("oldest query has no pending requests")
        return best_group

    def next_request(self, group_id: int) -> Optional[GetRequest]:
        """Serve only requests belonging to the oldest pending query."""
        pending = self._pending.get(group_id)
        if not pending:
            return None
        query = self._oldest_query()
        candidates = [
            request for request in pending.values() if request.query_id == query
        ]
        if not candidates:
            return None
        ordered = self.ordering.order(candidates)
        request = ordered[0]
        del pending[request.request_id]
        self._note_removed(request, group_id)
        self._dirty.add(group_id)
        return request


class MaxQueriesScheduler(IOScheduler):
    """Always switch to the group with the most queries having pending data.

    This is the efficiency-optimal policy adapted from tertiary-storage
    scheduling (within 2% of optimal for minimising switches) but it can
    starve queries on unpopular groups.
    """

    name = "max-queries"

    def choose_next_group(self, current_group: Optional[int]) -> int:
        best_group: Optional[int] = None
        best_queries = 0
        for group, counts in self._group_queries.items():
            queries = len(counts)
            if queries > best_queries or (queries == best_queries > 0 and group < best_group):
                best_group, best_queries = group, queries
        if best_group is None:
            raise SchedulingError("choose_next_group called with no pending requests")
        return best_group


class RankBasedScheduler(IOScheduler):
    """The paper's rank-based, query-aware scheduler.

    ``R(g) = N_g + K * Σ_{q on g} W_q(g)`` where ``N_g`` is the number of
    queries with pending data on ``g`` and ``W_q`` the number of switches
    since query ``q`` was last serviced.  ``K = 1`` maximises fairness while
    preserving the Max-Queries behaviour whenever queue lengths differ by
    more than the accumulated waiting time.
    """

    name = "rank-based"

    def __init__(self, fairness_constant: float = 1.0,
                 ordering: Optional[IntraGroupOrdering] = None) -> None:
        super().__init__(ordering=ordering)
        if not 0 <= fairness_constant < float("inf"):  # NaN fails both comparisons
            raise SchedulingError("fairness constant K must be finite and non-negative")
        self.fairness_constant = fairness_constant

    def rank(self, group_id: int) -> float:
        """Current rank of ``group_id``."""
        counts = self._group_queries.get(group_id)
        if not counts:
            return 0.0
        waiting = self._waiting
        waiting_sum = sum(waiting.get(query_id, 0) for query_id in counts)
        return len(counts) + self.fairness_constant * waiting_sum

    def choose_next_group(self, current_group: Optional[int]) -> int:
        """The pending group maximising ``(rank, N_g, -group)``, in one pass:
        :meth:`rank`'s arithmetic inline (integer waiting sum, one product,
        one sum), so the floats compared are the floats ``rank`` returns."""
        waiting = self._waiting
        fairness = self.fairness_constant
        best_group: Optional[int] = None
        best_rank = 0.0  # a group with pending data ranks at least N_g >= 1
        best_queries = 0
        for group, counts in self._group_queries.items():
            if not counts:
                continue
            queries = len(counts)
            waited = 0
            for query_id in counts:
                waited += waiting[query_id]
            rank = queries + fairness * waited
            if rank > best_rank or (
                rank == best_rank
                and (queries > best_queries or (queries == best_queries and group < best_group))
            ):
                best_group, best_rank, best_queries = group, rank, queries
        if best_group is None:
            raise SchedulingError("choose_next_group called with no pending requests")
        return best_group
