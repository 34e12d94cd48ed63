"""Subplan enumeration and tracking.

For a query joining relations R1 … Rn, each combination of one segment per
relation is a *subplan* (Table 2 in the paper).  Executing every subplan and
unioning the results is equivalent to executing the whole join, which is what
allows Skipper to make progress in whatever order the CSD returns objects.

:class:`SubplanTracker` keeps the pending / executed / pruned state of every
subplan, indexes subplans by the objects they touch, and answers the two
questions the cache-eviction policies need:

* how many *pending* subplans does an object participate in, and
* which pending subplans become *executable* given the cache contents plus a
  newly arrived object.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.query import Query
from repro.exceptions import QueryError

#: Subplan ids and their segment tuples (ordered by the tracker's table
#: order), as parallel lists ascending by id.
Batch = Tuple[List[int], List[Tuple[str, ...]]]


class Subplan:
    """One segment per joined relation, identified by its segment ids."""

    __slots__ = ("subplan_id", "segments")

    def __init__(self, subplan_id: int, segments: Tuple[str, ...]) -> None:
        self.subplan_id = subplan_id
        #: Segment ids ordered by the tracker's table order.
        self.segments = segments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Subplan #{self.subplan_id} {self.segments}>"


class SubplanTracker:
    """Tracks the execution state of every subplan of one query.

    The subplan space is ``itertools.product`` of the per-table segment lists
    in ``table_order``, so a subplan id is a mixed-radix number: the segment
    at index ``k`` of the table at position ``p`` adds ``k * stride[p]`` to
    the id of every subplan it takes part in.  Nothing is stored per
    (subplan, segment) pair — one pending flag per id and one pending count
    per object — and the ids and segment tuples of any sub-product are
    generated together, ascending by id, by ``itertools`` at C speed.  A
    single-table query has no other tables to multiply with, so every
    per-object operation on it is O(1).
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
        #: Per table position: the id contribution of one index step and of
        #: each segment (``index * stride``).  Per segment id: its table's
        #: position and its own contribution — two flat int dicts rather than
        #: one dict of tuples, so the cycle collector never has to visit them.
        self._strides: List[int] = []
        self._offsets: List[List[int]] = []
        self._position: Dict[str, int] = {}
        self._offset: Dict[str, int] = {}
        stride = total
        for position, segments in enumerate(self._segments):
            stride = stride // len(segments) if segments else 0
            offsets = [index * stride for index in range(len(segments))]
            self._strides.append(stride)
            self._offsets.append(offsets)
            self._position.update(dict.fromkeys(segments, position))
            self._offset.update(zip(segments, offsets))
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
        #: call: the arrival that follows an eviction drops the victim's
        #: combinations from that batch instead of enumerating the product a
        #: second time.  Every state transition clears it.
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

    def subplan(self, subplan_id: int) -> Subplan:
        """Return the subplan with the given id."""
        if not 0 <= subplan_id < self._total:
            raise QueryError(
                f"subplan #{subplan_id} does not exist; the query has {self._total} subplans"
            )
        return Subplan(
            subplan_id,
            tuple(
                segments[subplan_id // stride % len(segments)]
                for segments, stride in zip(self._segments, self._strides)
            ),
        )

    def pending_subplans(self) -> List[Subplan]:
        """All pending subplans (ascending id order)."""
        every = zip(range(self._total), itertools.product(*self._segments))
        return [
            Subplan(subplan_id, segments)
            for subplan_id, segments in itertools.compress(every, self._pending)
        ]

    def is_pending(self, subplan: Subplan) -> bool:
        """Whether ``subplan`` is still pending."""
        return 0 <= subplan.subplan_id < self._total and bool(self._pending[subplan.subplan_id])

    # ------------------------------------------------------------------ #
    # Object-centric queries used by the cache policies
    # ------------------------------------------------------------------ #
    def objects(self) -> List[str]:
        """All objects that appear in at least one subplan (pending or not)."""
        return sorted(self._position) if self._total else []

    def pending_count_for(self, segment_id: str) -> int:
        """Number of pending subplans that involve ``segment_id``."""
        return self._pending_count.get(segment_id, 0)

    def pending_counts(self, segment_ids: Iterable[str]) -> Dict[str, int]:
        """Pending-subplan count for each of ``segment_ids`` in one call.

        The eviction policies rank every cached object on each eviction;
        answering in bulk keeps that a single dict comprehension instead of
        a method call per cached object.
        """
        count = self._pending_count.get
        return {segment_id: count(segment_id, 0) for segment_id in segment_ids}

    def object_in_pending(self, segment_id: str) -> bool:
        """Whether ``segment_id`` is needed by at least one pending subplan."""
        return self._pending_count.get(segment_id, 0) > 0

    def objects_needed(self) -> Set[str]:
        """Objects required by at least one pending subplan."""
        return {segment_id for segment_id, count in self._pending_count.items() if count}

    def newly_runnable(self, cached: AbstractSet[str], new_object: str) -> List[Subplan]:
        """Pending subplans covered by ``cached ∪ {new_object}``.

        Because runnable subplans are executed as soon as they become
        runnable, any still-pending subplan covered by the cache must involve
        the newly arrived object, so only those are inspected.
        """
        return list(map(Subplan, *self.runnable_batch(cached, new_object)))

    def runnable_batch(self, cached: AbstractSet[str], new_object: str) -> Batch:
        """Like :meth:`newly_runnable` but as parallel id and segment-tuple lists.

        The candidates are the product of the *cached* segments of every
        other table with ``new_object`` fixed at its own position; the
        pending ones among them are the answer, ascending by id, which is
        lexicographic by segment tuple — the order the prefix-shared join
        walk relies on.
        """
        if not self._pending_count.get(new_object):
            self._locate(new_object)
            return [], []
        enumerated = self._enumerated
        if (
            enumerated is not None
            and enumerated[0] == new_object
            and enumerated[1].issuperset(cached)
        ):
            # Same arrival, same tracker state, a cache that only lost
            # objects (the eviction victim) since: the batch is the earlier
            # one minus the combinations holding a lost object.
            ids, combinations = enumerated[2]
            gone = enumerated[1].difference(cached, (new_object,))
            if gone:
                keep = list(map(gone.isdisjoint, combinations))
                ids = list(itertools.compress(ids, keep))
                combinations = list(itertools.compress(combinations, keep))
            return ids, combinations
        return self._subplans_of(new_object, cached)

    def executable_counts(self, cached: AbstractSet[str], new_object: str) -> Dict[str, int]:
        """For every cached object, the number of pending subplans that would
        be executable (given ``cached ∪ {new_object}``) in which it takes part.

        This is exactly the quantity the paper's *maximal progress* eviction
        policy minimises when choosing a victim.
        """
        self._locate(new_object)
        counts = dict.fromkeys(cached, 0)
        if len(self._segments) == 1:
            # Objects of one table never share a subplan: nothing to count,
            # and nothing worth remembering for the arrival.
            return counts
        batch = self.runnable_batch(cached, new_object)
        self._enumerated = (new_object, frozenset(cached), batch)
        for segment_id, occurrences in Counter(itertools.chain.from_iterable(batch[1])).items():
            if segment_id in counts:
                counts[segment_id] = occurrences
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
        """Pending subplans that hold ``segment_id`` and, at every other
        table position, one of the ``cached`` segments (any segment when
        ``cached`` is ``None``)."""
        position = self._locate(segment_id)
        base = self._offset[segment_id]
        if len(self._segments) == 1:
            # No other table to combine with: the segment is the subplan.
            return ([base], [(segment_id,)]) if self._pending[base] else ([], [])
        if cached is None:
            offset_lists = list(self._offsets)
            segment_lists = list(self._segments)
        else:
            segment_lists = [[] for _ in self._segments]
            position_of = self._position.get
            for cached_id in cached:
                # Objects of other queries cover nothing here.
                at = position_of(cached_id)
                if at is not None and at != position:
                    segment_lists[at].append(cached_id)
            offset_of = self._offset.__getitem__
            offset_lists = []
            for segments in segment_lists:
                segments.sort(key=offset_of)
                offset_lists.append(list(map(offset_of, segments)))
        offset_lists[position] = [base]
        segment_lists[position] = [segment_id]
        # Both products run over the same index lists, each ascending, so
        # ids and segment tuples pair up and come out in ascending id order.
        ids = list(map(sum, itertools.product(*offset_lists)))
        flags = list(map(self._pending.__getitem__, ids))
        return (
            list(itertools.compress(ids, flags)),
            list(itertools.compress(itertools.product(*segment_lists), flags)),
        )

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def mark_executed(self, subplan: Subplan) -> None:
        """Move a pending subplan to the executed state."""
        self.mark_batch_executed(
            [subplan.subplan_id], [self.subplan(subplan.subplan_id).segments]
        )

    def mark_batch_executed(self, ids: List[int], combinations: List[Tuple[str, ...]]) -> None:
        """Move a batch of pending subplans — one :meth:`runnable_batch`
        returned — to the executed state."""
        if len(ids) != len(combinations):
            raise QueryError("a batch needs one segment tuple per subplan id")
        if ids and not 0 <= min(ids) <= max(ids) < self._total:
            raise QueryError(f"a subplan id is outside the query's {self._total} subplans")
        if not all(map(self._pending.__getitem__, ids)):
            not_pending = [subplan_id for subplan_id in ids if not self._pending[subplan_id]]
            raise QueryError(f"subplan #{not_pending[0]} is not pending")
        self._retire(ids, combinations)
        self._num_executed += len(ids)

    def prune_object(self, segment_id: str) -> List[Subplan]:
        """Discard every pending subplan involving ``segment_id``.

        Used when an object is known to contribute no result tuples (e.g. its
        filtered row set is empty): none of its subplans can produce output,
        so they are dropped without being executed.  Returns the pruned
        subplans.
        """
        return [self.subplan(subplan_id) for subplan_id in self.prune_object_ids(segment_id)]

    def prune_object_ids(self, segment_id: str) -> List[int]:
        """Like :meth:`prune_object` but returns subplan *ids*.

        The hot callers (the MJoin state manager prunes the overwhelming
        majority of a large single-table query's subplans this way) only
        need the count, so no :class:`Subplan` objects are materialised.
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
        ids, combinations = self._subplans_of(segment_id)
        self._retire(ids, combinations)
        self._num_pruned += len(ids)
        return ids

    def _retire(self, ids: List[int], combinations: List[Tuple[str, ...]]) -> None:
        """Clear the pending flag of ``ids`` and take their segments'
        occurrences off the pending counts."""
        pending = self._pending
        for subplan_id in ids:
            pending[subplan_id] = 0
        pending_count = self._pending_count
        if len(ids) == 1:
            # Every batch of a single-table query: setting up a Counter
            # would cost more than the rest of the arrival put together.
            for segment_id in combinations[0]:
                pending_count[segment_id] -= 1
        else:
            # Counted once for the whole batch, at C speed.
            for segment_id, occurrences in Counter(
                itertools.chain.from_iterable(combinations)
            ).items():
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
