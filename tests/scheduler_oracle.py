"""The group decision, written the slow way: the tests' reference for
``RankBasedScheduler`` and ``MaxQueriesScheduler``.

Shares nothing with ``csd/scheduler.py`` but :class:`SchedulingError`: one
``group -> request id -> query id`` pool and a waiting counter per query, no
per-group or per-query index kept beside them.  Every answer is recomputed
from the pool — ``max`` over the sorted pending groups with the
``(rank, N_g, -group)`` key, ``any()`` over the pool, copied sets in
``notify_switch`` — so a one-pass maximum that breaks a tie the wrong way, or
an index that drifts from the pool, cannot pass here too.  It does not model
*which* request a group serves next (that is the intra-group ordering): the
caller tells it which request left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.exceptions import SchedulingError


def rank_of(scheduler, group_id: int) -> float:
    """``R(g) = N_g + K * sum(W_q)`` of a ``RankBasedScheduler``, read
    through its ``queries_on_group`` and ``waiting_time`` views."""
    queries = scheduler.queries_on_group(group_id)
    if not queries:
        return 0.0
    return len(queries) + scheduler.fairness_constant * sum(
        scheduler.waiting_time(query) for query in queries
    )


class SchedulerOracle:
    """``fairness_constant=None`` is max-queries; a number is rank-based with that K."""

    def __init__(self, fairness_constant: Optional[float]) -> None:
        self.fairness_constant = fairness_constant
        self.pending: Dict[int, Dict[int, str]] = {}
        self.waiting: Dict[str, int] = {}
        self.num_switches = 0
        self.max_waiting_seen = 0

    def add_request(self, request_id: int, query_id: str, group_id: int) -> None:
        self.pending.setdefault(group_id, {})[request_id] = query_id
        self.waiting.setdefault(query_id, 0)

    def remove_request(self, request_id: int, group_id: int) -> None:
        del self.pending[group_id][request_id]

    def has_pending(self) -> bool:
        return any(self.pending.values())

    def pending_groups(self) -> List[int]:
        return sorted(group for group, requests in self.pending.items() if requests)

    def queries_on_group(self, group_id: int) -> Set[str]:
        return set(self.pending.get(group_id, {}).values())

    def pending_queries(self) -> Set[str]:
        return {query for requests in self.pending.values() for query in requests.values()}

    def waiting_time(self, query_id: str) -> int:
        return self.waiting.get(query_id, 0)

    def rank(self, group_id: int) -> float:
        queries = self.queries_on_group(group_id)
        if not queries:
            return 0.0
        return len(queries) + self.fairness_constant * sum(self.waiting[q] for q in queries)

    def choose_next_group(self) -> int:
        groups = self.pending_groups()
        if not groups:
            raise SchedulingError("no pending requests")
        if self.fairness_constant is None:
            return max(groups, key=lambda group: (len(self.queries_on_group(group)), -group))
        return max(
            groups,
            key=lambda group: (self.rank(group), len(self.queries_on_group(group)), -group),
        )

    def notify_switch(self, new_group: int) -> None:
        self.num_switches += 1
        serviced = set(self.queries_on_group(new_group))
        for query_id in sorted(self.pending_queries()):
            if query_id in serviced:
                self.waiting[query_id] = 0
            else:
                self.waiting[query_id] += 1
                self.max_waiting_seen = max(self.max_waiting_seen, self.waiting[query_id])
