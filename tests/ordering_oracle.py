"""The semantically-smart ordering as first written: the reference
``repro.csd.ordering.SemanticRoundRobinOrdering`` is held to.

It groups requests per query and per table in dicts, sorts each table with a
key function, and interleaves with explicit cursors: one lambda call and two
key parses per request.  The program's ordering parses each key once and
sorts once; ``tests/test_csd_ordering_scheduler.py`` checks the two agree on
any pool.  The key parses are the ``GetRequest.table_name`` /
``segment_index`` properties the program no longer has.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence

from repro.csd.request import GetRequest


def table_name(request: GetRequest) -> str:
    """Table encoded in the object key (``tenant/table.index``)."""
    _tenant, _, local = request.object_key.partition("/")
    table, _, _index = local.rpartition(".")
    return table


def segment_index(request: GetRequest) -> int:
    """Segment index encoded in the object key."""
    _tenant, _, local = request.object_key.partition("/")
    _table, _, index = local.rpartition(".")
    return int(index)


def semantic_round_robin(requests: Sequence[GetRequest]) -> List[GetRequest]:
    """``SemanticRoundRobinOrdering.order`` as first written."""
    per_query: OrderedDict[str, List[GetRequest]] = OrderedDict()
    for request in sorted(requests, key=lambda request: request.request_id):
        per_query.setdefault(request.query_id, []).append(request)

    interleaved_per_query: Dict[str, List[GetRequest]] = {}
    for query_id, query_requests in per_query.items():
        per_table: OrderedDict[str, List[GetRequest]] = OrderedDict()
        for request in query_requests:
            per_table.setdefault(table_name(request), []).append(request)
        for table_requests in per_table.values():
            table_requests.sort(key=lambda request: (segment_index(request), request.request_id))
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
