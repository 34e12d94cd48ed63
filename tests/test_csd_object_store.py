"""Unit tests for the object store and its bulk load."""

import pytest

from repro.csd import ObjectStore
from repro.exceptions import StorageError


def test_key_roundtrip():
    store = ObjectStore()
    assert store.put_segments("tenant1", ["lineitem.3", "orders.0"], [1, 2]) == [
        "tenant1/lineitem.3",
        "tenant1/orders.0",
    ]
    assert store.get("tenant1/lineitem.3") == 1
    assert store.get("tenant1/orders.0") == 2


@pytest.mark.parametrize(
    "tenant, segment_ids, message",
    [
        ("", ["x.0"], "invalid tenant name"),
        ("a/b", ["x.0"], "invalid tenant name"),
        ("a", ["x.0", ""], "malformed object key: 'a/'"),
        ("a", ["x.0", "x"], "malformed object key: 'a/x'"),
        ("a", ["x.0", "x.y"], "malformed object key: 'a/x.y'"),
        ("a", ["x.0", ".1"], "malformed object key: 'a/.1'"),
        ("a", ["x.0", "x.0"], "'a/x.0' already exists"),
    ],
)
def test_invalid_keys_rejected(tenant, segment_ids, message):
    store = ObjectStore()
    with pytest.raises(StorageError, match=message):
        store.put_segments(tenant, segment_ids, list(range(len(segment_ids))))
    # All or nothing: the rejected call stored nothing.
    assert not store.exists(f"{tenant}/x.0")


def test_put_get_cycle():
    store = ObjectStore()
    assert not store.exists("t/a.0")
    with pytest.raises(StorageError):
        store.get("t/a.0")
    store.put_segments("t", ["a.0"], ["payload"])
    assert store.exists("t/a.0")
    assert store.get("t/a.0") == "payload"


def test_duplicate_put_rejected():
    store = ObjectStore()
    store.put_segments("t", ["a.0"], [1])
    with pytest.raises(StorageError, match="'t/a.0' already exists"):
        store.put_segments("t", ["a.1", "a.0"], [2, 3])
    assert store.get("t/a.0") == 1
    assert not store.exists("t/a.1")


def test_tenant_namespacing():
    store = ObjectStore()
    assert store.put_segments("alice", ["a.0", "a.1"], [1, 2]) == ["alice/a.0", "alice/a.1"]
    assert store.put_segments("bob", ["a.0"], [3]) == ["bob/a.0"]
    assert [store.get(key) for key in ("alice/a.0", "alice/a.1", "bob/a.0")] == [1, 2, 3]


def test_put_segments_from_relation_segments(tiny_tpch_catalog):
    store = ObjectStore()
    segments = tiny_tpch_catalog.relation("orders").segments
    keys = store.put_segments("tenant", [segment.segment_id for segment in segments], segments)
    assert len(keys) == tiny_tpch_catalog.num_segments("orders")
    for key, segment in zip(keys, segments):
        assert store.get(key) is segment


def test_key_rows_index_every_tenants_keys_by_segment():
    store = ObjectStore()
    alice = store.key_row("alice")  # a client may ask before its tenant loads
    keys = store.put_segments("alice", ["a.0", "a.1"], [1, 2])
    store.put_segments("bob", ["a.1", "b.0"], [3, 4])
    assert store.key_columns == {"a.0": 0, "a.1": 1, "b.0": 2}
    # The live row, widened in place by the later load; the store's own keys.
    assert alice is store.key_row("alice")
    assert alice == ["alice/a.0", "alice/a.1", None]
    assert all(row is key for row, key in zip(alice, keys))
    assert store.key_row("bob") == [None, "bob/a.1", "bob/b.0"]
    assert store.key_row("carol") == [None, None, None]
