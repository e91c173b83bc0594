"""Tests of MRP-Store partitioning and the in-memory key-value state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore.partitioning import HashPartitioner, Partitioner
from repro.kvstore.store import KeyValueStore


class TestHashPartitioner:
    def test_routing_is_deterministic_and_in_range(self):
        partitioner = HashPartitioner([0, 1, 2])
        for key in ("a", "b", "user123", ""):
            group = partitioner.group_for_key(key)
            assert group in (0, 1, 2)
            assert partitioner.group_for_key(key) == group

    def test_scan_hits_every_partition(self):
        partitioner = HashPartitioner([0, 1, 2])
        assert partitioner.groups_for_range("a", "b") == [0, 1, 2]

    def test_keys_spread_over_partitions(self):
        partitioner = HashPartitioner([0, 1, 2, 3])
        groups = {partitioner.group_for_key(f"key{i}") for i in range(200)}
        assert groups == {0, 1, 2, 3}

    def test_requires_groups(self):
        with pytest.raises(ValueError):
            HashPartitioner([])

    @given(st.text(max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_any_key_is_routable(self, key):
        partitioner = HashPartitioner([5, 9])
        assert partitioner.group_for_key(key) in (5, 9)

    @given(st.lists(st.text(max_size=12), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_memoised_routing_is_the_md5_rule(self, keys):
        import hashlib

        groups = [3, 5, 9]
        partitioner = HashPartitioner(groups)
        for key in keys + keys:  # second pass answers from the memo
            index = int.from_bytes(hashlib.md5(key.encode()).digest()[:4], "big") % 3
            assert partitioner.group_for_key(key) == groups[index]


class TestPartitionerInterface:
    def test_the_base_class_routes_nothing(self):
        base = Partitioner()
        with pytest.raises(NotImplementedError):
            base.group_for_key("k")
        with pytest.raises(NotImplementedError):
            base.groups_for_range("a", "z")


class TestKeyValueStore:
    def test_insert_read_update(self):
        store = KeyValueStore()
        assert store.read("k1") is None
        assert store.insert("k1", "v1", 100)
        assert store.read("k1").value == "v1"
        assert store.update("k1", "v2", 150)
        assert store.read("k1").size_bytes == 150
        assert len(store) == 1

    def test_update_missing_key_fails(self):
        store = KeyValueStore()
        assert not store.update("missing", "v", 10)

    def test_insert_is_upsert(self):
        store = KeyValueStore()
        store.insert("k", "a", 10)
        store.insert("k", "b", 20)
        assert len(store) == 1
        assert store.size_bytes == 20

    def test_scan_returns_sorted_range_inclusive(self):
        store = KeyValueStore()
        for key in ("b", "a", "d", "c", "e"):
            store.insert(key, key.upper(), 10)
        result = store.scan("b", "d")
        assert [k for k, _ in result] == ["b", "c", "d"]
        assert [k for k, _ in store.scan("d", "b")] == ["b", "c", "d"]

    def test_scan_with_limit(self):
        store = KeyValueStore()
        for i in range(10):
            store.insert(f"k{i}", i, 10)
        assert len(store.scan("k0", "k9", limit=3)) == 3

    def test_size_accounting(self):
        store = KeyValueStore()
        store.insert("a", None, 100)
        store.insert("b", None, 200)
        store.update("a", None, 50)
        assert store.size_bytes == 250

    def test_snapshot_and_restore(self):
        store = KeyValueStore()
        for i in range(5):
            store.insert(f"k{i}", i, 10)
        snapshot = store.snapshot()
        store.update("k0", 99, 10)
        other = KeyValueStore()
        other.restore(snapshot)
        assert len(other) == 5
        assert other.read("k0").value == 0
        assert [k for k, _ in other.scan("k0", "k9")] == [f"k{i}" for i in range(5)]

    @given(st.lists(st.tuples(st.sampled_from("abcdef"), st.integers(0, 2)), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sorted_keys_invariant(self, operations):
        """A full scan always lists exactly the stored keys, in order."""
        store = KeyValueStore()
        for key, op in operations:
            if op == 0:
                store.insert(key, None, 10)
            elif op == 1:
                store.update(key, None, 20)
            else:
                store.read(key)
            scanned = [k for k, _ in store.scan("a", "f")]
            assert scanned == sorted({k for k in "abcdef" if store.read(k) is not None})
