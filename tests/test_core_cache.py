"""Unit tests for the object cache and its eviction policies."""

import pytest

from repro.core.cache import (
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.subplan import Batch, SubplanTracker
from repro.exceptions import CacheError
from repro.workloads import tpch


@pytest.fixture()
def tracker(tiny_tpch_catalog):
    return SubplanTracker(tpch.q12(), tiny_tpch_catalog)


class TestObjectCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            ObjectCache(0)

    def test_add_and_get(self):
        cache = ObjectCache(2)
        cache.add("x.0", "payload")
        assert "x.0" in cache
        assert len(cache) == 1
        assert cache.get("x.0").payload == "payload"
        assert cache.peek("missing") is None
        assert cache.num_insertions == 1
        assert cache.num_hits == 1

    def test_duplicate_add_rejected(self):
        cache = ObjectCache(2)
        cache.add("x.0", 1)
        with pytest.raises(CacheError):
            cache.add("x.0", 2)

    def test_add_to_full_cache_rejected(self):
        cache = ObjectCache(1)
        cache.add("x.0", 1)
        assert cache.is_full
        with pytest.raises(CacheError):
            cache.add("x.1", 2)

    def test_get_missing_raises(self):
        with pytest.raises(CacheError):
            ObjectCache(1).get("nope")

    def test_get_batch_accounts_like_one_get_per_occurrence(self):
        cache = ObjectCache(3)
        for segment_id in ("a.0", "b.0", "b.1"):
            cache.add(segment_id, segment_id.upper())
        payloads = cache.get_batch(Batch([["a.0"], ["b.0", "b.1"]], [0, 1], b"\x01\x01"))
        assert payloads == {"a.0": "A.0", "b.0": "B.0", "b.1": "B.1"}
        assert cache.num_hits == 4
        # Three insertions took ticks 0-2; the four hits took 3-6.
        assert [cache.peek(s).last_used for s in ("a.0", "b.0", "b.1")] == [5, 4, 6]
        assert cache.get("b.0").last_used == 7

    def test_get_batch_touches_nothing_for_a_hole(self):
        cache = ObjectCache(4)
        for segment_id in ("a.0", "a.1", "b.0", "b.1"):
            cache.add(segment_id, segment_id.upper())
        # Pending: (a.0, b.1) and (a.1, b.0); b.1's last tick is the earlier one.
        holes = Batch([["a.0", "a.1"], ["b.0", "b.1"]], [0, 1, 2, 3], b"\x00\x01\x01\x00")
        assert sorted(cache.get_batch(holes)) == ["a.0", "a.1", "b.0", "b.1"]
        assert cache.num_hits == 4
        assert [cache.peek(s).last_used for s in ("a.0", "b.1", "a.1", "b.0")] == [4, 5, 6, 7]
        # A segment with no pending combination is neither touched nor returned.
        only = Batch([["a.0", "a.1"], ["b.0", "b.1"]], [0, 1, 2, 3], b"\x00\x00\x01\x00")
        assert cache.get_batch(only) == {"a.1": "A.1", "b.0": "B.0"}
        assert [cache.peek(s).last_used for s in ("a.0", "b.1", "a.1", "b.0")] == [4, 5, 8, 9]

    def test_get_batch_with_a_missing_object_changes_nothing(self):
        cache = ObjectCache(2)
        cache.add("a.0", 1)
        cache.add("b.0", 2)
        with pytest.raises(CacheError, match="'b.1' is not cached"):
            cache.get_batch(Batch([["a.0"], ["b.0", "b.1"]], [0, 1], b"\x01\x01"))
        assert cache.num_hits == 0
        assert [cache.peek(s).last_used for s in ("a.0", "b.0")] == [0, 1]
        assert cache.get("a.0").last_used == 2

    def test_evict_empty_cache_raises(self, tracker):
        with pytest.raises(CacheError):
            ObjectCache(1).evict("x.0", tracker)

    def test_eviction_updates_counters(self, tracker):
        cache = ObjectCache(2, policy=FIFOEviction())
        cache.add("lineitem.0", 1)
        cache.add("lineitem.1", 2)
        victim = cache.evict("lineitem.2", tracker)
        # The removed entry comes back, payload and all.
        assert (victim.segment_id, victim.payload) == ("lineitem.0", 1)
        assert cache.num_evictions == 1
        assert len(cache) == 1 and "lineitem.0" not in cache


class TestEvictionPolicies:
    def test_fifo_evicts_oldest_insertion(self, tracker):
        cache = ObjectCache(3, policy=FIFOEviction())
        for segment_id in ("orders.0", "lineitem.0", "lineitem.1"):
            cache.add(segment_id, segment_id)
        cache.get("orders.0")  # touching must not matter for FIFO
        assert cache.evict("lineitem.2", tracker).segment_id == "orders.0"

    def test_lru_evicts_least_recently_used(self, tracker):
        cache = ObjectCache(3, policy=LRUEviction())
        for segment_id in ("orders.0", "lineitem.0", "lineitem.1"):
            cache.add(segment_id, segment_id)
        cache.get("orders.0")
        cache.get("lineitem.1")
        assert cache.evict("lineitem.2", tracker).segment_id == "lineitem.0"

    def test_max_pending_evicts_least_popular_object(self, tracker, tiny_tpch_catalog):
        # orders.* objects participate in more pending subplans than
        # lineitem.* objects (there are more lineitem segments than orders
        # segments), so the policy must evict a lineitem segment.
        cache = ObjectCache(3, policy=MaxPendingSubplansEviction())
        cache.add("orders.0", 1)
        cache.add("orders.1", 1)
        cache.add("lineitem.0", 1)
        assert cache.evict("lineitem.1", tracker).segment_id == "lineitem.0"

    def test_max_progress_prefers_objects_enabling_no_progress(self, tracker):
        cache = ObjectCache(3, policy=MaxProgressEviction())
        cache.add("orders.0", 1)
        cache.add("orders.1", 1)
        cache.add("lineitem.0", 1)
        # Execute every subplan touching lineitem.0 so it can enable nothing.
        tracker.mark_batch_executed(tracker.runnable_batch({"orders.0", "orders.1"}, "lineitem.0"))
        assert cache.evict("lineitem.1", tracker).segment_id == "lineitem.0"

    def test_max_progress_paper_example(self):
        """The Section 4.2 example: C.3 is the right victim, never B.1."""
        from repro.engine import Catalog, Column, DataType, Relation, TableSchema
        from repro.engine.query import AggregateSpec, JoinCondition, Query

        catalog = Catalog()
        for table, column in (("a", "a_key"), ("b", "b_key"), ("c", "c_key")):
            schema = TableSchema(table, [Column(column, DataType.INTEGER)])
            catalog.register(
                Relation.from_rows(schema, [{column: 0}, {column: 1}], rows_per_segment=1)
            )
        query = Query(
            name="abc",
            tables=["a", "b", "c"],
            joins=[
                JoinCondition("a", "a_key", "b", "b_key"),
                JoinCondition("b", "b_key", "c", "c_key"),
            ],
            group_by=[],
            aggregates=[AggregateSpec("count", None, "cnt")],
        )
        tracker = SubplanTracker(query, catalog)
        for combination in [("a.0", "b.0", "c.1"), ("a.1", "b.0", "c.1")]:
            subplan_id = sum(map(tracker.offset_of, combination))
            tracker.mark_batch_executed(
                Batch([[segment_id] for segment_id in combination], [subplan_id], b"\x01")
            )
        cache = ObjectCache(4, policy=MaxProgressEviction())
        for segment_id in ("a.0", "b.0", "a.1", "c.1"):
            cache.add(segment_id, segment_id)
        assert cache.evict("c.0", tracker).segment_id == "c.1"

    def test_policies_only_return_cached_victims(self, tracker):
        for policy in (
            MaxProgressEviction(),
            MaxPendingSubplansEviction(),
            LRUEviction(),
            FIFOEviction(),
        ):
            cache = ObjectCache(2, policy=policy)
            cache.add("orders.0", 1)
            cache.add("lineitem.0", 1)
            victim = cache.evict("lineitem.1", tracker)
            assert victim.segment_id in {"orders.0", "lineitem.0"}
