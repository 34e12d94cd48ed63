"""Unit tests for the object cache and its eviction policies."""

import pytest
from mjoin_oracle import reference_get

from repro.core.cache import (
    CachedObject,
    EvictionPolicy,
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.subplan import Batch, SubplanLayout, SubplanTracker
from repro.exceptions import CacheError
from repro.workloads import tpch


@pytest.fixture()
def tracker(tiny_tpch_catalog):
    return SubplanTracker(SubplanLayout(tpch.q12(), tiny_tpch_catalog, tpch.q12().tables))


class TestObjectCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            ObjectCache(0)

    def test_add_and_get(self):
        cache = ObjectCache(2)
        cache.add("x.0", "payload")
        assert "x.0" in cache.ids_view()
        assert len(cache.ids_view()) == 1
        assert reference_get(cache, "x.0").payload == "payload"
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

    def test_get_batch_of_a_missing_object_raises(self):
        with pytest.raises(CacheError, match="'nope' is not cached"):
            ObjectCache(1).get_batch(Batch([["nope"]], [0], b"\x01"))

    def test_get_batch_accounts_like_one_get_per_occurrence(self):
        cache = ObjectCache(3)
        for segment_id in ("a.0", "b.0", "b.1"):
            cache.add(segment_id, segment_id.upper())
        payloads = cache.get_batch(Batch([["a.0"], ["b.0", "b.1"]], [0, 1], b"\x01\x01"))
        assert payloads == {"a.0": "A.0", "b.0": "B.0", "b.1": "B.1"}
        assert cache.num_hits == 4
        # Three insertions took ticks 0-2; the four hits took 3-6.
        assert [cache.peek(s).last_used for s in ("a.0", "b.0", "b.1")] == [5, 4, 6]
        assert reference_get(cache, "b.0").last_used == 7

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
        assert reference_get(cache, "a.0").last_used == 2

    def test_a_batch_read_keeps_one_access_alive(self):
        cache = ObjectCache(4)
        for segment_id in ("a.0", "a.1", "b.0", "b.1"):
            cache.add(segment_id, segment_id.upper())
        cache.get_batch(Batch([["a.0", "a.1"], ["b.0", "b.1"]], [0, 1, 2, 3], b"\x00\x01\x01\x00"))
        cache.get_batch(Batch([["a.0", "a.1"], ["b.0", "b.1"]], [0, 1, 2, 3], b"\x00\x00\x01\x00"))
        # The entries the second read left out took their ticks from the
        # first; only the second read's access is still held.
        entries = [cache.peek(s) for s in ("a.0", "b.1", "a.1", "b.0")]
        assert [entry.last_access is None for entry in entries] == [True, True, False, False]
        assert [entry.last_used for entry in entries] == [4, 5, 8, 9]

    def test_peak_occupancy_is_the_most_ever_cached(self, tracker):
        cache = ObjectCache(3, policy=FIFOEviction())
        cache.add("lineitem.0", 1)
        cache.add("lineitem.1", 2)
        cache.evict("lineitem.2", tracker)
        cache.add("lineitem.2", 3)
        assert cache.peak_occupancy == 2
        cache.add("lineitem.3", 4)
        assert cache.peak_occupancy == 3

    def test_an_entry_is_slotted(self):
        assert not hasattr(CachedObject("a.0", None, 0, 0), "__dict__")

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
        assert len(cache.ids_view()) == 1 and "lineitem.0" not in cache.ids_view()


class TestEvictionPolicies:
    def test_fifo_evicts_oldest_insertion(self, tracker):
        cache = ObjectCache(3, policy=FIFOEviction())
        for segment_id in ("orders.0", "lineitem.0", "lineitem.1"):
            cache.add(segment_id, segment_id)
        reference_get(cache, "orders.0")  # touching must not matter for FIFO
        assert cache.evict("lineitem.2", tracker).segment_id == "orders.0"

    def test_lru_evicts_least_recently_used(self, tracker):
        cache = ObjectCache(3, policy=LRUEviction())
        for segment_id in ("orders.0", "lineitem.0", "lineitem.1"):
            cache.add(segment_id, segment_id)
        reference_get(cache, "orders.0")
        reference_get(cache, "lineitem.1")
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
        tracker = SubplanTracker(SubplanLayout(query, catalog, query.tables))
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

    def test_a_policy_that_picks_a_non_cached_victim_is_refused(self, tracker):
        class Stranger(FIFOEviction):
            def choose_victim(self, cache, new_object, tracker):
                return "orders.9"

        cache = ObjectCache(1, policy=Stranger())
        cache.add("orders.0", 1)
        with pytest.raises(CacheError, match="policy 'fifo' chose a non-cached victim 'orders.9'"):
            cache.evict("orders.1", tracker)
        assert list(cache.ids_view()) == ["orders.0"] and cache.num_evictions == 0

    def test_the_base_policy_chooses_nothing(self, tracker):
        with pytest.raises(NotImplementedError):
            EvictionPolicy().choose_victim(ObjectCache(1), "orders.0", tracker)

    def test_each_policy_has_its_own_name(self):
        # The labels the eviction ablation reports its rows under.
        names = [
            policy.name
            for policy in (
                MaxProgressEviction(),
                MaxPendingSubplansEviction(),
                LRUEviction(),
                FIFOEviction(),
            )
        ]
        assert names == ["max-progress", "max-pending-subplans", "lru", "fifo"]
