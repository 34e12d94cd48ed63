"""Unit tests for the object store and object-key helpers."""

import pytest

from repro.csd import ObjectStore
from repro.csd.object_store import make_object_key, split_object_key
from repro.exceptions import StorageError


def test_key_roundtrip():
    key = make_object_key("tenant1", "lineitem.3")
    assert key == "tenant1/lineitem.3"
    assert split_object_key(key) == ("tenant1", "lineitem.3")


def test_invalid_keys_rejected():
    with pytest.raises(StorageError):
        make_object_key("", "x.0")
    with pytest.raises(StorageError):
        make_object_key("a/b", "x.0")
    with pytest.raises(StorageError):
        split_object_key("no-separator")


def test_put_get_delete_cycle():
    store = ObjectStore()
    store.put("t/a.0", "payload")
    assert store.exists("t/a.0")
    assert store.get("t/a.0") == "payload"
    assert "t/a.0" in store
    assert len(store) == 1
    store.delete("t/a.0")
    assert not store.exists("t/a.0")
    with pytest.raises(StorageError):
        store.get("t/a.0")
    with pytest.raises(StorageError):
        store.delete("t/a.0")


def test_duplicate_put_rejected():
    store = ObjectStore()
    store.put("t/a.0", 1)
    with pytest.raises(StorageError):
        store.put("t/a.0", 2)


def test_tenant_namespacing():
    store = ObjectStore()
    store.put_segment("alice", "a.0", 1)
    store.put_segment("alice", "a.1", 2)
    store.put_segment("bob", "a.0", 3)
    assert sorted(store.keys("alice")) == ["alice/a.0", "alice/a.1"]
    assert store.keys("bob") == ["bob/a.0"]
    assert set(store.tenants()) == {"alice", "bob"}
    assert len(store.keys()) == 3


def test_load_tenant_from_relation_segments(tiny_tpch_catalog):
    store = ObjectStore()
    segments = tiny_tpch_catalog.relation("orders").segments
    keys = store.load_tenant("tenant", segments)
    assert len(keys) == tiny_tpch_catalog.num_segments("orders")
    for key, segment in zip(keys, segments):
        assert store.get(key) is segment
