"""Tests of the stable-storage substrate: WAL and checkpoints."""

import pytest

from repro.paxos.messages import ProposalValue
from repro.sim.actor import Environment
from repro.sim.disk import StorageMode
from repro.storage.checkpoint import CheckpointId, CheckpointStore
from repro.storage.wal import WriteAheadLog


def _value(size=100):
    return ProposalValue(payload=b"x", size_bytes=size)


class TestWriteAheadLog:
    def test_in_memory_mode_never_touches_a_device(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.IN_MEMORY)
        log.append(0, 1, _value(), 100)
        env.simulator.run()
        assert log.disk is None
        assert 0 in log

    def test_sync_mode_reports_durable_time(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.SYNC_HDD)
        fired = []
        durable_at = log.append(0, 1, _value(), 100, on_durable=lambda: fired.append(env.simulator.now))
        assert durable_at is not None and durable_at > 0
        env.simulator.run()
        assert fired and fired[0] == pytest.approx(durable_at)
        assert log.disk.write_count == 1

    def test_async_mode_flushes_in_background(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.ASYNC_SSD)
        for i in range(10):
            log.append(i, 1, _value(), 100)
        env.simulator.run(until=0.1)
        assert log.disk.write_count >= 1
        assert len(log) == 10

    def test_an_async_log_writes_its_buffer_once_per_flush_interval(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.ASYNC_SSD)
        log.append(0, 1, _value(), 100)
        log.append(1, 1, _value(), 100)
        env.simulator.run(until=WriteAheadLog.FLUSH_INTERVAL / 2)
        assert log.disk.write_count == 0
        env.simulator.run(until=WriteAheadLog.FLUSH_INTERVAL * 1.5)
        assert log.disk.write_count == 1
        log.append(2, 1, _value(), 100)
        env.simulator.run(until=WriteAheadLog.FLUSH_INTERVAL * 3)
        assert log.disk.write_count == 2

    def test_crash_in_memory_loses_everything(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.IN_MEMORY)
        log.append(0, 1, _value(), 10)
        log.crash()
        assert len(log) == 0

    def test_crash_async_loses_unflushed_tail_only(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.ASYNC_HDD)
        log.append(0, 1, _value(), 10)
        env.simulator.run(until=0.1)  # flushed
        log.append(1, 1, _value(), 10)  # still buffered
        log.crash()
        assert 0 in log
        assert 1 not in log

    def test_crash_sync_keeps_everything(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.SYNC_SSD)
        log.append(0, 1, _value(), 10)
        env.simulator.run()
        log.crash()
        assert 0 in log

    def test_a_record_is_read_back_with_its_ballot_and_size(self):
        env = Environment()
        log = WriteAheadLog(env)
        assert log.highest_instance() == -1 and log.get(0) is None
        value = _value(100)
        log.append(4, 3, value, 40)
        log.append(2, 1, _value(), 100)
        record = log.get(4)
        assert (record.instance, record.ballot, record.value, record.size_bytes) == (4, 3, value, 40)
        assert log.get(3) is None and 3 not in log
        assert log.instances() == [2, 4] and log.highest_instance() == 4

    def test_sync_mode_writes_each_record_with_its_framing(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.SYNC_SSD)
        for i in range(3):
            log.append(i, 1, _value(), 100)
        env.simulator.run()
        assert log.disk.write_count == 3
        assert log.disk.bytes_written == 3 * (100 + 64)

    def test_an_async_crash_drops_the_buffered_bytes_with_the_records(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.ASYNC_SSD)
        log.append(0, 1, _value(), 500)
        log.append(1, 1, _value(), 500)
        log.crash()  # before the first flush
        log.append(2, 1, _value(), 10)
        env.simulator.run(until=0.1)
        assert log.instances() == [2]
        assert log.disk.write_count == 1 and log.disk.bytes_written == 10 + 64


class TestCheckpointId:
    def test_accessors(self):
        cid = CheckpointId.from_mapping({2: 7, 0: 9})
        assert cid.instance_for(2) == 7
        assert cid.instance_for(5) == -1
        assert cid.as_dict() == {0: 9, 2: 7}
        assert cid.entries == ((0, 9), (2, 7))


class TestCheckpointStore:
    def test_save_and_latest(self):
        env = Environment()
        store = CheckpointStore(env)
        store.KEEP = 2
        first = store.save(CheckpointId.from_mapping({0: 1}), state={"a": 1}, size_bytes=100)
        second = store.save(CheckpointId.from_mapping({0: 2}), state={"a": 2}, size_bytes=100)
        assert store.latest() is second
        assert store._checkpoints == [first, second]

    def test_keep_limit_discards_oldest(self):
        env = Environment()
        store = CheckpointStore(env)
        store.KEEP = 2
        for i in range(5):
            store.save(CheckpointId.from_mapping({0: i}), state=i, size_bytes=10)
        assert [c.state for c in store._checkpoints] == [3, 4]

    def test_durable_callback_fires(self):
        env = Environment()
        store = CheckpointStore(env)
        fired = []
        store.save(CheckpointId.from_mapping({0: 1}), state=None, size_bytes=10_000,
                   on_durable=lambda: fired.append(env.simulator.now))
        env.simulator.run()
        assert fired and fired[0] > 0

    def test_a_store_keeps_its_newest_keep_checkpoints(self):
        env = Environment()
        store = CheckpointStore(env)
        for i in range(CheckpointStore.KEEP + 2):
            store.save(CheckpointId.from_mapping({0: i}), state=i, size_bytes=10)
        assert [c.state for c in store._checkpoints] == [2, 3, 4]
        assert store.latest().state == 4

    def test_empty_store_has_no_latest(self):
        assert CheckpointStore(Environment()).latest() is None
