"""Intra-group request orderings.

Once the CSD has switched to a disk group it must decide in which order to
return the objects requested on that group.  The paper shows that a
"semantically smart" order — satisfying requests evenly across the relations
of each query — lets the cache-constrained MJoin make progress with far fewer
re-issues than returning one table at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Dict, List, Sequence

from repro.csd.request import GetRequest


class IntraGroupOrdering:
    """Base class: order the pending requests of one disk group."""

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        """Return ``requests`` in service order (a new list)."""
        raise NotImplementedError


class ArrivalOrdering(IntraGroupOrdering):
    """Serve requests in the order they arrived (FCFS within the group)."""

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        return sorted(requests, key=attrgetter("request_id"))


class TableMajorOrdering(IntraGroupOrdering):
    """Serve all objects of one table before moving to the next table.

    This is the adversarial ordering discussed in Section 4.4: a
    cache-constrained MJoin cannot make progress with objects of a single
    relation, so it maximises re-issues.
    """

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        return sorted(
            requests,
            key=lambda request: (
                request.query_id,
                request.table_name,
                request.segment_index,
                request.request_id,
            ),
        )


class SemanticRoundRobinOrdering(IntraGroupOrdering):
    """The paper's semantically-smart ordering.

    Within each query, requests are interleaved round-robin across that
    query's relations (A.1, B.1, C.1, A.2, B.2, C.2, …).  Across queries the
    scheduler then interleaves one object per query per turn so that no
    tenant waits for another tenant's full dataset.
    """

    def order(self, requests: Sequence[GetRequest]) -> List[GetRequest]:
        per_query: OrderedDict[str, List[GetRequest]] = OrderedDict()
        for request in sorted(requests, key=lambda request: request.request_id):
            per_query.setdefault(request.query_id, []).append(request)

        interleaved_per_query: Dict[str, List[GetRequest]] = {}
        for query_id, query_requests in per_query.items():
            per_table: OrderedDict[str, List[GetRequest]] = OrderedDict()
            for request in query_requests:
                per_table.setdefault(request.table_name, []).append(request)
            for table_requests in per_table.values():
                table_requests.sort(key=lambda request: (request.segment_index, request.request_id))
            interleaved: List[GetRequest] = []
            cursors = {table: 0 for table in per_table}
            remaining = len(query_requests)
            while remaining:
                for table, table_requests in per_table.items():
                    cursor = cursors[table]
                    if cursor < len(table_requests):
                        interleaved.append(table_requests[cursor])
                        cursors[table] = cursor + 1
                        remaining -= 1
            interleaved_per_query[query_id] = interleaved

        result: List[GetRequest] = []
        cursors = {query_id: 0 for query_id in interleaved_per_query}
        remaining = sum(len(items) for items in interleaved_per_query.values())
        while remaining:
            for query_id, items in interleaved_per_query.items():
                cursor = cursors[query_id]
                if cursor < len(items):
                    result.append(items[cursor])
                    cursors[query_id] = cursor + 1
                    remaining -= 1
        return result
