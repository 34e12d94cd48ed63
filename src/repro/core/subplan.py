"""Subplan enumeration and tracking.

For a query joining relations R1 … Rn, each combination of one segment per
relation is a *subplan* (Table 2 in the paper).  Executing every subplan and
unioning the results is equivalent to executing the whole join, which is what
allows Skipper to make progress in whatever order the CSD returns objects.

The subplan space is ``itertools.product`` of the per-table segment lists,
and so is every set of subplans the arrival path handles.  :class:`Batch`
keeps such a set *as* that product and is the one value that travels from the
tracker through the cache and the join to the retire: no segment tuple
is built for a subplan on the way, and a subplan is known only by its id.
:class:`SubplanTracker` keeps the pending / executed / pruned state of every
subplan and is driven one way: :meth:`~SubplanTracker.runnable_batch` then
:meth:`~SubplanTracker.mark_batch_executed` per arrival, and
:meth:`~SubplanTracker.prune_object` for an object that joins nothing.  It
answers the two questions the cache-eviction policies need:

* how many *pending* subplans does an object participate in, and
* which pending subplans become *executable* given the cache contents plus a
  newly arrived object.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import add, not_
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.query import Query
from repro.exceptions import QueryError


class Batch:
    """Candidate subplans in product layout: ``itertools.product(*lists)``.

    ``lists`` holds, per table position, segment ids in id order; ``ids`` the
    subplan id and ``flags`` the pending flag (1 or 0) of every combination,
    both in product order, which is ascending id order.  The pending
    combinations are the batch's subplans, the others are *holes*.  A segment
    of position ``p`` holds runs of *stride* combinations, the product of the
    lengths of the lists after ``p``.  Nothing is mutated after construction.
    """

    __slots__ = ("lists", "ids", "flags", "num_pending", "_tallies")

    def __init__(self, lists: List[List[str]], ids: List[int], flags: bytes) -> None:
        total = 1
        for segments in lists:
            total *= len(segments)
        if not len(ids) == len(flags) == total:
            raise QueryError(
                f"a batch of {total} combinations got {len(ids)} ids and {len(flags)} flags"
            )
        self.lists = lists
        self.ids = ids
        self.flags = flags
        self.num_pending = flags.count(1)
        self._tallies: Optional[Dict[str, int]] = None

    def combinations(self) -> List[Tuple[str, ...]]:
        """Segment tuples of the pending combinations, in id order: a derived
        view for tests, which nothing on the arrival path builds."""
        return list(itertools.compress(itertools.product(*self.lists), self.flags))

    def tallies(self) -> Dict[str, int]:
        """Per segment of ``lists``, the pending combinations holding it: its
        ``total // len(its list)`` combinations of the product minus the holes
        among them — only holes are enumerated, so a batch with nothing
        executed yet counts nothing."""
        if self._tallies is None:
            total = len(self.flags)
            tallies = self._tallies = {}
            for segments in self.lists:
                for segment_id in segments:
                    tallies[segment_id] = total // len(segments)
            if self.num_pending < total:
                holes = itertools.compress(itertools.product(*self.lists), map(not_, self.flags))
                for segment_id, missing in Counter(itertools.chain.from_iterable(holes)).items():
                    tallies[segment_id] -= missing
        return self._tallies

    def without(self, position: int, segment_id: str) -> Batch:
        """The batch a fresh enumeration would give with ``segment_id`` gone
        from ``lists[position]`` (``self`` when it is not there)."""
        segments = self.lists[position]
        if segment_id not in segments:
            return self
        index = segments.index(segment_id)
        stride = math.prod(map(len, self.lists[position + 1 :]))
        # Its combinations are one run of ``stride`` per period.
        keep = bytes([1]) * (index * stride) + bytes(stride)
        keep += bytes([1]) * (len(segments) * stride - len(keep))
        lists = list(self.lists)
        lists[position] = segments[:index] + segments[index + 1 :]
        batch = Batch(
            lists,
            list(itertools.compress(self.ids, itertools.cycle(keep))),
            bytes(itertools.compress(self.flags, itertools.cycle(keep))),
        )
        if self._tallies is not None and not self._tallies[segment_id]:
            # It held holes only: every other segment keeps its count.
            batch._tallies = dict(self._tallies)
            del batch._tallies[segment_id]
        return batch


class SubplanTracker:
    """Tracks the execution state of every subplan of one query.

    The subplan space is ``itertools.product`` of the per-table segment lists
    in ``table_order``, so a subplan id is a mixed-radix number: the segment
    at index ``k`` of the table at position ``p`` adds ``k * stride[p]`` to
    the id of every subplan it takes part in.  Nothing is stored per
    (subplan, segment) pair — one pending flag per id and one pending count
    per object — and any sub-product is handed out as a :class:`Batch`,
    ascending by id.  A single-table query has no other tables to multiply
    with, so every per-object operation on it is O(1).
    """

    def __init__(self, query: Query, catalog: Catalog, table_order: Optional[Sequence[str]] = None) -> None:
        self.query = query
        self.catalog = catalog
        self.table_order: Tuple[str, ...] = tuple(table_order or query.tables)
        if set(self.table_order) != set(query.tables):
            raise QueryError("table_order must be a permutation of the query's tables")

        #: Per table position: its segment ids, in catalog (index) order.
        self._segments: List[List[str]] = [
            list(catalog.segment_ids(table)) for table in self.table_order
        ]
        total = 1
        for segments in self._segments:
            total *= len(segments)
        self._total = total
        #: Per segment id: its table's position and its own contribution to
        #: a subplan id (``index * stride``, the stride being the product of
        #: the widths after its table) — two flat int dicts rather than one
        #: dict of tuples, so the cycle collector never has to visit them.
        self._position: Dict[str, int] = {}
        self._offset: Dict[str, int] = {}
        stride = total
        for position, segments in enumerate(self._segments):
            stride = stride // len(segments) if segments else 0
            self._position.update(dict.fromkeys(segments, position))
            offsets = [index * stride for index in range(len(segments))]
            self._offset.update(zip(segments, offsets))
        #: What a segment id adds to the id of every subplan it takes part in
        #: (one segment per table: the offsets add up to the subplan id); a
        #: ``KeyError`` for a segment of no table of the query.
        self.offset_of = self._offset.__getitem__
        #: One flag per subplan id: 1 while pending, 0 once executed or pruned.
        self._pending = bytearray(b"\x01") * total
        #: object (segment id) -> number of *pending* subplans containing it.
        self._pending_count: Dict[str, int] = {
            segment_id: total // len(segments)
            for segments in self._segments
            for segment_id in segments
        }
        self._num_executed = 0
        self._num_pruned = 0
        #: ``(new_object, cached, batch)`` of the last :meth:`executable_counts`
        #: call: the arrival that follows the eviction takes the victim out of
        #: that batch instead of enumerating again.  Any transition clears it.
        self._enumerated: Optional[Tuple[str, FrozenSet[str], Batch]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_subplans(self) -> int:
        """Total number of subplans generated for the query."""
        return self._total

    @property
    def num_pending(self) -> int:
        """Number of subplans still waiting to be executed."""
        return self._total - self._num_executed - self._num_pruned

    @property
    def num_executed(self) -> int:
        """Number of subplans whose join has been executed."""
        return self._num_executed

    @property
    def num_pruned(self) -> int:
        """Number of subplans discarded by empty-object pruning."""
        return self._num_pruned

    def has_pending(self) -> bool:
        """Whether any subplan is still pending."""
        return self._num_executed + self._num_pruned < self._total

    # ------------------------------------------------------------------ #
    # Object-centric queries used by the cache policies
    # ------------------------------------------------------------------ #
    def pending_counts(self, segment_ids: Iterable[str]) -> Dict[str, int]:
        """Pending-subplan count for each of ``segment_ids``, in their order:
        one call per eviction, not one per cached object."""
        count = self._pending_count.get
        return {segment_id: count(segment_id, 0) for segment_id in segment_ids}

    def object_in_pending(self, segment_id: str) -> bool:
        """Whether ``segment_id`` is needed by at least one pending subplan;
        a segment of no table of the query raises :class:`QueryError`."""
        if self._pending_count.get(segment_id):
            return True
        self._locate(segment_id)
        return False

    def objects_needed(self) -> Set[str]:
        """Objects required by at least one pending subplan."""
        return {segment_id for segment_id, count in self._pending_count.items() if count}

    def runnable_batch(self, cached: AbstractSet[str], new_object: str) -> Batch:
        """The pending subplans covered by ``cached ∪ {new_object}``, as a
        :class:`Batch`: the product of the *cached* segments of every other
        table with ``new_object`` alone at its own position, the pending ones
        among them being the answer.  Runnable subplans are executed as soon
        as they become runnable, so any still-pending subplan the cache covers
        must involve the newly arrived object.  Reads tracker state only."""
        if not self._pending_count.get(new_object):
            self._locate(new_object)
            return Batch([[] for _ in self._segments], [], b"")
        if len(self._segments) == 1:
            # No other table to combine with: the segment is the subplan.
            return Batch([[new_object]], [self._offset[new_object]], b"\x01")
        enumerated = self._enumerated
        if (
            enumerated is not None
            and enumerated[0] == new_object
            and enumerated[1].issuperset(cached)
        ):
            # Same arrival, same tracker state, a cache that only lost
            # objects (the eviction victim) since.
            batch = enumerated[2]
            for gone in enumerated[1].difference(cached, (new_object,)):
                position = self._position.get(gone)
                if position is not None:
                    batch = batch.without(position, gone)
            return batch
        return self._subplans_of(new_object, cached)

    def executable_counts(self, cached: AbstractSet[str], new_object: str) -> Dict[str, int]:
        """For every cached object, the number of pending subplans that would
        be executable (given ``cached ∪ {new_object}``) in which it takes part.

        This is exactly the quantity the paper's *maximal progress* eviction
        policy minimises when choosing a victim.  Keyed in ``cached``'s
        iteration order.
        """
        counts = dict.fromkeys(cached, 0)
        if len(self._segments) == 1 or not self._pending_count.get(new_object):
            # Objects of one table never share a subplan, and one with nothing
            # pending completes none: nothing to count or to remember.
            self._locate(new_object)
            return counts
        batch = self._subplans_of(new_object, cached)
        self._enumerated = (new_object, frozenset(cached), batch)
        for segment_id, tally in batch.tallies().items():
            if segment_id in counts:
                counts[segment_id] = tally
        return counts

    def _locate(self, segment_id: str) -> int:
        """Table position of a segment of this query."""
        try:
            return self._position[segment_id]
        except KeyError:
            raise QueryError(
                f"segment {segment_id!r} belongs to no table of query {self.query.name!r}"
            ) from None

    def _subplans_of(self, segment_id: str, cached: Optional[AbstractSet[str]] = None) -> Batch:
        """The subplans that hold ``segment_id`` and, at every other table
        position, one of the ``cached`` segments (any segment when ``cached``
        is ``None``), pending or not."""
        position = self._position[segment_id]
        offset_of = self._offset.__getitem__
        if cached is None:
            lists = list(self._segments)
        else:
            lists = [[] for _ in self._segments]
            position_of = self._position.get
            for cached_id in cached:
                # Objects of other queries cover nothing here.
                at = position_of(cached_id)
                if at is not None and at != position:
                    lists[at].append(cached_id)
            for segments in lists:
                segments.sort(key=offset_of)
        lists[position] = [segment_id]
        # The ids of the product, grown a position at a time: every list is
        # ascending, so they come out ascending, paired with
        # ``product(*lists)``.  A list of one only shifts them all.
        ids = [0]
        for segments in lists:
            if len(segments) == 1:
                ids[0] += offset_of(segments[0])
        for segments in lists:
            if len(segments) != 1:
                ids = list(itertools.starmap(add, itertools.product(ids, map(offset_of, segments))))
        return Batch(lists, ids, bytes(map(self._pending.__getitem__, ids)))

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def mark_batch_executed(self, batch: Batch) -> None:
        """Move the pending subplans of a batch — one :meth:`runnable_batch`
        returned — to the executed state.  A batch that is stale (one of its
        subplans is no longer pending) or not this query's raises
        :class:`QueryError` before anything is changed."""
        if batch.ids and not 0 <= min(batch.ids) <= max(batch.ids) < self._total:
            raise QueryError(f"a subplan id is outside the query's {self._total} subplans")
        ids = itertools.compress(batch.ids, batch.flags)
        for subplan_id in itertools.filterfalse(self._pending.__getitem__, ids):
            raise QueryError(f"subplan #{subplan_id} is not pending")
        if not batch.tallies().keys() <= self._pending_count.keys():
            for segment_id in batch.tallies():
                self._locate(segment_id)
        self._retire(batch)
        self._num_executed += batch.num_pending

    def prune_object(self, segment_id: str) -> List[int]:
        """Discard every pending subplan involving ``segment_id``; returns
        their ids.

        Used when an object is known to contribute no result tuples (e.g. its
        filtered row set is empty): none of its subplans can produce output,
        so they are dropped without being executed.
        """
        if not self._pending_count.get(segment_id):
            self._locate(segment_id)
            return []
        if len(self._segments) == 1:
            # The segment is its own, only subplan.  Spelled out because a
            # million-key single-table query prunes nine objects in ten, and
            # the batch machinery below costs several times this per call.
            subplan_id = self._offset[segment_id]
            self._pending[subplan_id] = 0
            self._pending_count[segment_id] = 0
            self._num_pruned += 1
            self._enumerated = None
            return [subplan_id]
        batch = self._subplans_of(segment_id)
        self._retire(batch)
        self._num_pruned += batch.num_pending
        return list(itertools.compress(batch.ids, batch.flags))

    def _retire(self, batch: Batch) -> None:
        """Clear the pending flag of a batch's subplans and take its tallies
        off the pending counts."""
        pending = self._pending
        for subplan_id in itertools.compress(batch.ids, batch.flags):
            pending[subplan_id] = 0
        pending_count = self._pending_count
        for segment_id, occurrences in batch.tallies().items():
            pending_count[segment_id] -= occurrences
        self._enumerated = None


def enumerate_subplans(
    segments_per_table: Dict[str, Iterable[str]]
) -> List[Tuple[str, ...]]:
    """Enumerate subplans for an explicit table → segments mapping.

    A convenience used by documentation examples and the Table 2 benchmark;
    the heavy lifting for real queries goes through :class:`SubplanTracker`.
    """
    tables = list(segments_per_table)
    lists = [list(segments_per_table[table]) for table in tables]
    return [tuple(combination) for combination in itertools.product(*lists)]
