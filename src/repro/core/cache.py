"""Skipper's bounded object cache and eviction policies.

The MJoin state manager buffers fetched objects (relation segments) in a
cache whose capacity is expressed in objects — the paper's cache sizes in GB
map one-to-one because each object is a 1 GB segment.  When the cache is full
and a new object arrives, an :class:`EvictionPolicy` picks the victim.  The
subplans an arrival completes are read in one :meth:`ObjectCache.get_batch`
over their :class:`~repro.core.subplan.Batch`, one pass per cached object.

Policies:

* :class:`MaxProgressEviction` — the paper's final design: evict the object
  participating in the fewest subplans that would become executable given
  the current cache contents and the new arrival; break ties by the number
  of pending subplans.
* :class:`MaxPendingSubplansEviction` — the paper's first attempt: evict the
  object participating in the fewest *pending* subplans.
* :class:`LRUEviction`, :class:`FIFOEviction` — classic baselines used in the
  eviction-policy ablation (``tests/figures/test_ablation_eviction_policies.py``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, KeysView, List, Optional, Tuple

from repro.core.subplan import Batch, SubplanTracker
from repro.exceptions import CacheError


#: What an entry a batch read touched keeps until its tick is read: the
#: batch's lists and flags and the clock before the read.
Access = Tuple[List[List[str]], bytes, int]


def _settle(entries: List[CachedObject]) -> None:
    """Give each of ``entries``, which hold one and the same :data:`Access`,
    the tick it leaves for their last access, and drop the access.

    One access per segment of each pending combination, position by
    position from the read's first tick on, leaves a segment's last one at
    its last pending combination's rank among the pending times the width,
    plus its position.
    """
    lists, flags, first_tick = entries[0].last_access
    for entry in entries:
        segment_id = entry.segment_id
        stride = len(flags)
        for position, segments in enumerate(lists):
            stride //= len(segments)
            if segment_id in segments:
                break
        # Back from the end, one run of ``stride`` per period, to the run
        # that holds a pending combination.
        period = stride * len(segments)
        for start in range(len(flags) - period + segments.index(segment_id) * stride, -1, -period):
            last = flags.rfind(1, start, start + stride)
            if last >= 0:
                break
        entry.tick = first_tick + position + flags.count(1, 0, last) * len(lists)
        entry.last_access = None


class CachedObject:
    """A cached segment plus the bookkeeping the policies rely on.

    ``last_used`` is the clock tick of the last access.  An entry that
    :meth:`ObjectCache.get_batch` touched keeps the batch's :data:`Access`
    instead and derives the tick the first time it is read: only
    :class:`LRUEviction` and the tests read it.
    """

    __slots__ = ("segment_id", "payload", "inserted_at", "tick", "last_access")

    def __init__(self, segment_id: str, payload: object, inserted_at: int, last_used: int) -> None:
        self.segment_id = segment_id
        self.payload = payload
        self.inserted_at = inserted_at
        #: The last access's tick, unless ``last_access`` is still set.
        self.tick = last_used
        #: The batch read of the last access while its tick is still to derive.
        self.last_access: Optional[Access] = None

    @property
    def last_used(self) -> int:
        if self.last_access is not None:
            _settle([self])
        return self.tick


class EvictionPolicy:
    """Strategy interface for choosing an eviction victim; ``name`` is the
    label a subclass is reported under."""

    name: str

    def choose_victim(
        self,
        cache: ObjectCache,
        new_object: str,
        tracker: SubplanTracker,
    ) -> str:
        """Return the segment id of the object to evict."""
        raise NotImplementedError


class MaxProgressEviction(EvictionPolicy):
    """Evict the object enabling the least immediate progress (paper default)."""

    name = "max-progress"

    def choose_victim(self, cache: ObjectCache, new_object: str, tracker: SubplanTracker) -> str:
        # One pass over the cached ids: (executable, pending, id).  The rank
        # ends with the (unique) segment id, so ``min`` over any iteration
        # order returns the same victim a pre-sorted scan would.
        cached_ids = cache.ids_view()
        executable = tracker.executable_tallies(cached_ids, new_object).get
        return min(
            zip(
                map(executable, cached_ids, repeat(0)),
                map(tracker.pending_count_of, cached_ids, repeat(0)),
                cached_ids,
            )
        )[-1]


class MaxPendingSubplansEviction(EvictionPolicy):
    """Evict the object participating in the fewest pending subplans."""

    name = "max-pending-subplans"

    def choose_victim(self, cache: ObjectCache, new_object: str, tracker: SubplanTracker) -> str:
        cached_ids = cache.ids_view()
        return min(zip(map(tracker.pending_count_of, cached_ids, repeat(0)), cached_ids))[-1]


class LRUEviction(EvictionPolicy):
    """Evict the least recently used object."""

    name = "lru"

    def choose_victim(self, cache: ObjectCache, new_object: str, tracker: SubplanTracker) -> str:
        return min(
            cache.objects(),
            key=lambda cached: (cached.last_used, cached.segment_id),
        ).segment_id


class FIFOEviction(EvictionPolicy):
    """Evict the object that has been cached the longest."""

    name = "fifo"

    def choose_victim(self, cache: ObjectCache, new_object: str, tracker: SubplanTracker) -> str:
        return min(
            cache.objects(),
            key=lambda cached: (cached.inserted_at, cached.segment_id),
        ).segment_id


class ObjectCache:
    """Bounded cache of relation segments keyed by segment id."""

    def __init__(self, capacity: int, policy: Optional[EvictionPolicy] = None) -> None:
        if capacity <= 0:
            raise CacheError("cache capacity must be at least one object")
        self.capacity = capacity
        self.policy = policy or MaxProgressEviction()
        self._contents: Dict[str, CachedObject] = {}
        #: Recency clock: one tick per insertion and per hit.
        self._clock = 0
        #: Counters for diagnostics and the cache-size experiments.
        self.num_insertions = 0
        self.num_evictions = 0
        self.num_hits = 0
        #: Highest occupancy ever reached (the invariant checker verifies
        #: that this never exceeds ``capacity``).
        self.peak_occupancy = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_full(self) -> bool:
        """Whether adding another object requires an eviction."""
        return len(self._contents) >= self.capacity

    def ids_view(self) -> KeysView[str]:
        """Live view of the cached segment ids (no copy).

        Supports ``in``, iteration and set algebra without materialising a
        set per call — the hot arrival/eviction paths ask for the cache
        contents two or three times per arriving object.
        """
        return self._contents.keys()

    def objects(self) -> List[CachedObject]:
        """Cached entries (deterministic order by segment id)."""
        return [self._contents[key] for key in sorted(self._contents)]

    def get_batch(self, batch: Batch) -> Dict[str, Any]:
        """Payloads, by segment id, of every object in a pending combination.

        Accounts for the whole batch at once exactly what one access per
        segment of each pending combination, in order, would (the tests'
        ``reference_get``): as many hits and clock ticks as there are segment
        occurrences, and each entry's ``last_used`` is the tick of its last
        occurrence, derived from the batch's lists and flags when it is read.
        A non-cached segment in any of them raises before anything is changed.
        """
        contents = self._contents
        tallies = batch.tallies()
        for segment_id, tally in tallies.items():
            if tally and segment_id not in contents:
                raise CacheError(f"object {segment_id!r} is not cached")
        # Not the batch itself: its ids and tallies need not outlive the
        # arrival.  An entry still holding the previous read's access takes
        # its tick now, so one access at most is kept alive.
        access = (batch.lists, batch.flags, self._clock)
        payloads: Dict[str, Any] = {}
        stale = []
        for segment_id, entry in contents.items():
            if tallies.get(segment_id):
                entry.last_access = access
                payloads[segment_id] = entry.payload
            elif entry.last_access is not None:
                stale.append(entry)
        if stale:
            _settle(stale)
        occurrences = len(batch.lists) * batch.num_pending
        self._clock += occurrences
        self.num_hits += occurrences
        return payloads

    def peek(self, segment_id: str) -> Optional[CachedObject]:
        """Return the cached entry without touching it, or ``None``: how the
        tests read what :meth:`get_batch` left."""
        return self._contents.get(segment_id)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, segment_id: str, payload: object) -> None:
        """Insert ``payload`` under ``segment_id`` (caller must ensure space)."""
        if segment_id in self._contents:
            raise CacheError(f"object {segment_id!r} is already cached")
        if len(self._contents) >= self.capacity:
            raise CacheError("cache is full; evict before adding")
        tick = self._clock
        self._clock += 1
        self._contents[segment_id] = CachedObject(
            segment_id=segment_id,
            payload=payload,
            inserted_at=tick,
            last_used=tick,
        )
        self.num_insertions += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._contents))

    def evict(self, new_object: str, tracker: SubplanTracker) -> CachedObject:
        """Choose and remove a victim to make room for ``new_object``; the
        removed entry is returned, for whoever keeps state derived from it."""
        if not self._contents:
            raise CacheError("cannot evict from an empty cache")
        victim = self.policy.choose_victim(self, new_object, tracker)
        if victim not in self._contents:
            raise CacheError(f"policy {self.policy.name!r} chose a non-cached victim {victim!r}")
        self.num_evictions += 1
        return self._contents.pop(victim)
