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

from dataclasses import dataclass
from typing import Any, Dict, KeysView, List, Optional

from repro.core.subplan import Batch, SubplanTracker
from repro.exceptions import CacheError


@dataclass
class CachedObject:
    """A cached segment plus the bookkeeping the policies rely on."""

    segment_id: str
    payload: object
    inserted_at: int
    last_used: int


class EvictionPolicy:
    """Strategy interface for choosing an eviction victim."""

    name = "base"

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
        # Both count dicts are keyed in ``cached_ids`` order.  The rank ends
        # with the (unique) segment id, so ``min`` over any iteration order
        # returns the same victim a pre-sorted scan would.
        cached_ids = cache.ids_view()
        executable = tracker.executable_counts(cached_ids, new_object)
        pending = tracker.pending_counts(cached_ids)
        return min(zip(executable.values(), pending.values(), cached_ids))[-1]


class MaxPendingSubplansEviction(EvictionPolicy):
    """Evict the object participating in the fewest pending subplans."""

    name = "max-pending-subplans"

    def choose_victim(self, cache: ObjectCache, new_object: str, tracker: SubplanTracker) -> str:
        cached_ids = cache.ids_view()
        return min(zip(tracker.pending_counts(cached_ids).values(), cached_ids))[-1]


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
    def __len__(self) -> int:
        return len(self._contents)

    def __contains__(self, segment_id: object) -> bool:
        return isinstance(segment_id, str) and segment_id in self._contents

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

    def get(self, segment_id: str) -> CachedObject:
        """Return (and touch) the cached entry for ``segment_id``."""
        try:
            entry = self._contents[segment_id]
        except KeyError:
            raise CacheError(f"object {segment_id!r} is not cached") from None
        entry.last_used = self._clock
        self._clock += 1
        self.num_hits += 1
        return entry

    def get_batch(self, batch: Batch) -> Dict[str, Any]:
        """Payloads, by segment id, of every object in a pending combination.

        Accounts for the whole batch at once exactly what one :meth:`get`
        per segment of each pending combination, in order, would: as many
        hits and clock ticks as there are segment occurrences, and each
        entry's ``last_used`` is the tick of its last occurrence.  A
        non-cached segment in any of them raises before anything is changed.
        """
        flags = batch.flags
        width = len(batch.lists)
        last_tick: Dict[str, int] = {}
        stride = len(flags)
        for tick, segments in enumerate(batch.lists, self._clock):
            # Back from the end, one pending combination per run of ``stride``
            # that has any, until every segment was met or none is left: its
            # rank among the pending times the ticks each takes, from the
            # position's first tick, is the tick a ``get`` would have left.
            stride //= len(segments) or 1
            unseen = len(segments)
            end = len(flags)
            while unseen and (last := flags.rfind(1, 0, end)) >= 0:
                segment_id = segments[last // stride % len(segments)]
                if segment_id not in last_tick:
                    last_tick[segment_id] = tick + flags.count(1, 0, last) * width
                    unseen -= 1
                end = last - last % stride
        contents = self._contents
        for segment_id in last_tick:
            if segment_id not in contents:
                raise CacheError(f"object {segment_id!r} is not cached")
        payloads: Dict[str, Any] = {}
        for segment_id, tick in last_tick.items():
            entry = contents[segment_id]
            entry.last_used = tick
            payloads[segment_id] = entry.payload
        occurrences = width * batch.num_pending
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
        if self.is_full:
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
