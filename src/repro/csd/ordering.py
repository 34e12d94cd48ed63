"""Intra-group request orderings.

Once the CSD has switched to a disk group it must decide in which order to
return the objects requested on that group.  The paper shows that a
"semantically smart" order — satisfying requests evenly across the relations
of each query — lets the cache-constrained MJoin make progress with far fewer
re-issues than returning one table at a time.
"""

from __future__ import annotations

from itertools import chain, groupby, zip_longest
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.csd.request import GetRequest
from repro.exceptions import StorageError

#: One request as the orderings sort it: query id, table, segment index,
#: request id, and the request itself (never compared: request ids are unique).
Decorated = Tuple[str, str, int, int, GetRequest]

_request = itemgetter(4)
_request_id = attrgetter("request_id")
_query_table = itemgetter(0, 1)
_first_seen = itemgetter(0)
_run_requests = itemgetter(2)


def _decorated(requests: Iterable[GetRequest]) -> List[Decorated]:
    """Each request's sort record, its ``tenant/table.index`` key parsed once.

    A key whose segment index is not an integer is a
    :class:`~repro.exceptions.StorageError` naming the key.
    """
    decorated: List[Decorated] = []
    append = decorated.append
    try:
        for request in requests:
            table, _dot, index = request.object_key.partition("/")[2].rpartition(".")
            append((request.query_id, table, int(index), request.request_id, request))
    except ValueError:
        raise StorageError(f"malformed object key: {request.object_key!r}") from None
    return decorated


def _round_robin(runs: Iterable[Sequence[GetRequest]]) -> List[GetRequest]:
    """The first of every run, then the second of every run still going, …"""
    return list(filter(None, chain.from_iterable(zip_longest(*runs))))


class IntraGroupOrdering:
    """Base class: order the pending requests of one disk group."""

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        """Return ``requests`` in service order (a new list)."""
        raise NotImplementedError


class ArrivalOrdering(IntraGroupOrdering):
    """Serve requests in the order they arrived (FCFS within the group)."""

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        return sorted(requests, key=_request_id)


class TableMajorOrdering(IntraGroupOrdering):
    """Serve all objects of one table before moving to the next table.

    This is the adversarial ordering discussed in Section 4.4: a
    cache-constrained MJoin cannot make progress with objects of a single
    relation, so it maximises re-issues.  Requests sort by query id, table,
    segment index and request id.
    """

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        decorated = _decorated(requests)
        decorated.sort()
        return list(map(_request, decorated))


class SemanticRoundRobinOrdering(IntraGroupOrdering):
    """The paper's semantically-smart ordering.

    Within each query, requests are interleaved round-robin across that
    query's relations (A.1, B.1, C.1, A.2, B.2, C.2, …).  Across queries the
    scheduler then interleaves one object per query per turn so that no
    tenant waits for another tenant's full dataset.  Queries take their
    turns, and a query's tables theirs, in the order of their first request
    id; a table serves its requests by segment index, then request id.

    One sort of the parsed requests puts every (query, table) run in that
    order; the interleaving is then per run, not per request.
    """

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        decorated = _decorated(requests)
        if not decorated:
            return []
        decorated.sort()
        if _query_table(decorated[0]) == _query_table(decorated[-1]):
            # One query, one table (the common pool): the sort is the order.
            return list(map(_request, decorated))
        # Every (query, table) run with the request id it was first seen at,
        # and every query's first request id; then the runs in turn order.
        runs: List[Tuple[str, int, List[GetRequest]]] = []
        query_first: Dict[str, int] = {}
        for (query_id, _table), run in groupby(decorated, _query_table):
            run_requests = list(map(_request, run))
            first = min(map(_request_id, run_requests))
            if first < query_first.get(query_id, first + 1):
                query_first[query_id] = first
            runs.append((query_id, first, run_requests))
        ranked: List[Tuple[int, int, List[GetRequest]]] = []
        for query_id, first, run_requests in runs:
            ranked.append((query_first[query_id], first, run_requests))
        ranked.sort()
        per_query: List[List[GetRequest]] = []
        for _first, query_runs in groupby(ranked, _first_seen):
            per_query.append(_round_robin(map(_run_requests, query_runs)))
        return _round_robin(per_query)
