"""Tests of the MRP-Store client API (Table 1) command construction and routing."""

import pytest

from repro.core.client import Command
from repro.kvstore.client import MRPStoreCommands, kv_request_factory
from repro.kvstore.partitioning import HashPartitioner


@pytest.fixture
def commands():
    return MRPStoreCommands(HashPartitioner([0, 1, 2]))


class TestTable1Operations:
    def test_read_routes_to_owning_partition(self, commands):
        command = commands.read("apple")
        assert command.op == "read"
        assert command.group_id == commands.partitioner.group_for_key("apple")
        assert command.args == ("apple",)

    def test_update_and_insert_carry_value_size(self, commands):
        update = commands.update("zebra", value_size=1024)
        assert update.op == "update"
        assert update.group_id == commands.partitioner.group_for_key("zebra")
        assert update.size_bytes > 1024
        insert = commands.insert("kiwi", value_size=100)
        assert insert.op == "insert"
        assert insert.group_id == commands.partitioner.group_for_key("kiwi")
        assert insert.size_bytes > 100

    def test_scan_under_hash_partitioning_addresses_all(self, commands):
        scan = commands.scan("a", "b")
        assert [c.group_id for c in scan] == [0, 1, 2]
        assert all(c.op == "scan" for c in scan)


class TestRequestFactory:
    def _factory(self, commands):
        operations = iter([
            ("read", "apple", 0, None),
            ("update", "zebra", 512, None),
            ("insert", "kiwi", 512, None),
            ("read-modify-write", "melon", 512, None),
            ("scan", "a", 0, "z"),
        ])
        return kv_request_factory(commands, lambda seq: next(operations))

    def test_factory_translates_each_operation(self, commands):
        factory = self._factory(commands)
        read_cmds, await_groups = factory(0)
        assert len(read_cmds) == 1 and read_cmds[0].op == "read"
        assert await_groups == [read_cmds[0].group_id]

        update_cmds, _ = factory(1)
        assert update_cmds[0].op == "update"
        insert_cmds, _ = factory(2)
        assert insert_cmds[0].op == "insert"

        rmw_cmds, rmw_groups = factory(3)
        assert [c.op for c in rmw_cmds] == ["read", "update"]
        assert len(rmw_groups) == 1

        scan_cmds, scan_groups = factory(4)
        assert len(scan_cmds) == 3
        assert sorted(scan_groups) == [0, 1, 2]

    def test_unknown_operation_rejected(self, commands):
        factory = kv_request_factory(commands, lambda seq: ("explode", "k", 0, None))
        with pytest.raises(ValueError):
            factory(0)
