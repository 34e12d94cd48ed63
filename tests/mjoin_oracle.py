"""The readable definitions of what the MJoin arrival path answers in one pass.

:func:`executable_counts` and :func:`pending_counts` are the two questions of
the paper's eviction policies (Section 4.2), spelled out per cached object:
how many of the subplans the arrival would make runnable hold it, and how
many pending subplans hold it.  :class:`ReadableMaxProgress` and
:class:`ReadableMaxPending` pick their victims from those dictionaries, as
the definitions read; ``MaxProgressEviction`` and
``MaxPendingSubplansEviction`` must pick the same ones.

:func:`reference_get` is one access to a cached object, and
:class:`ReferenceCache` reads a batch with one such access per segment of
each pending combination, so every entry's ``last_used`` is a stored tick
rather than a derived one: ``ObjectCache.get_batch`` must leave what it
leaves wherever a tick is read.
"""

from repro.core.cache import EvictionPolicy, ObjectCache
from repro.exceptions import CacheError


def reference_get(cache, segment_id):
    """One access to a cached object, the way ``get_batch`` must account
    each occurrence: the entry's ``last_used`` takes the next clock tick and
    the hit is counted."""
    entry = cache.peek(segment_id)
    if entry is None:
        raise CacheError(f"object {segment_id!r} is not cached")
    entry.tick, entry.last_access = cache._clock, None
    cache._clock += 1
    cache.num_hits += 1
    return entry


def tracker_has_pending(tracker):
    """Whether any of the tracker's subplans is neither executed nor pruned."""
    return tracker.num_executed + tracker.num_pruned < tracker.total_subplans


def pending_counts(tracker, segment_ids):
    """Pending-subplan count for each of ``segment_ids``, in their order;
    0 for a segment of no table of the query."""
    return {segment_id: tracker.pending_count_of(segment_id) or 0 for segment_id in segment_ids}


def executable_counts(tracker, cached, new_object):
    """For every cached object, the number of pending subplans executable
    given ``cached ∪ {new_object}`` in which it takes part, keyed in
    ``cached``'s order: a count over the runnable combinations."""
    runnable = tracker.runnable_batch(cached, new_object).combinations()
    return {
        segment_id: sum(segment_id in combination for combination in runnable)
        for segment_id in cached
    }


class ReadableMaxProgress(EvictionPolicy):
    """The fewest executable subplans, then the fewest pending, then the
    smallest id."""

    name = "max-progress"

    def choose_victim(self, cache, new_object, tracker):
        cached = sorted(cache.ids_view())
        executable = executable_counts(tracker, cached, new_object)
        pending = pending_counts(tracker, cached)
        return min(cached, key=lambda segment_id: (executable[segment_id], pending[segment_id]))


class ReadableMaxPending(EvictionPolicy):
    """The fewest pending subplans, then the smallest id."""

    name = "max-pending-subplans"

    def choose_victim(self, cache, new_object, tracker):
        cached = sorted(cache.ids_view())
        pending = pending_counts(tracker, cached)
        return min(cached, key=pending.__getitem__)


class ReferenceCache(ObjectCache):
    """An :class:`ObjectCache` whose batch read is one :func:`reference_get`
    per segment of each pending combination, in id order."""

    def get_batch(self, batch):
        combinations = batch.combinations()
        for combination in combinations:
            for segment_id in combination:
                if self.peek(segment_id) is None:
                    raise CacheError(f"object {segment_id!r} is not cached")
        payloads = {}
        for combination in combinations:
            for segment_id in combination:
                payloads[segment_id] = reference_get(self, segment_id).payload
        return payloads
