"""Tests of the stable-storage substrate: slot buffer, WAL and checkpoints."""

import pytest

from repro.paxos.messages import ProposalValue
from repro.sim.actor import Environment
from repro.sim.disk import StorageMode
from repro.storage.checkpoint import CheckpointId, CheckpointStore
from repro.storage.slots import SlotBuffer, SlotFullError
from repro.storage.wal import WriteAheadLog


class TestSlotBuffer:
    def test_put_get_and_occupancy(self):
        buffer = SlotBuffer(slot_count=10, slot_size_bytes=1024)
        buffer.put(0, "v0", 100)
        buffer.put(1, "v1", 200)
        assert buffer.get(0).value == "v0"
        assert 1 in buffer
        assert len(buffer) == 2
        assert buffer.occupancy == pytest.approx(0.2)
        assert buffer.bytes_used == 300

    def test_oversized_value_rejected(self):
        buffer = SlotBuffer(slot_count=10, slot_size_bytes=100)
        with pytest.raises(ValueError):
            buffer.put(0, "v", 200)

    def test_full_buffer_raises(self):
        buffer = SlotBuffer(slot_count=2, slot_size_bytes=100)
        buffer.put(0, "a", 1)
        buffer.put(1, "b", 1)
        with pytest.raises(SlotFullError):
            buffer.put(2, "c", 1)
        # overwriting an existing slot is allowed even when full
        buffer.put(1, "b2", 1)

    def test_trim_frees_slots(self):
        buffer = SlotBuffer(slot_count=5)
        for i in range(5):
            buffer.put(i, f"v{i}", 10)
        removed = buffer.trim(2)
        assert removed == 3
        assert 3 in buffer and 0 not in buffer
        buffer.put(10, "new", 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SlotBuffer(slot_count=0)
        with pytest.raises(ValueError):
            SlotBuffer(slot_size_bytes=0)

    def test_clear(self):
        buffer = SlotBuffer()
        buffer.put(0, "v", 10)
        buffer.clear()
        assert len(buffer) == 0


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
        log = WriteAheadLog(env, mode=StorageMode.ASYNC_SSD, flush_interval=0.01)
        for i in range(10):
            log.append(i, 1, _value(), 100)
        env.simulator.run(until=0.1)
        assert log.disk.write_count >= 1
        assert len(log) == 10

    def test_trim_removes_records(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.IN_MEMORY)
        for i in range(10):
            log.append(i, 1, _value(), 10)
        removed = log.trim(4)
        assert removed == 5
        assert log.instances() == [5, 6, 7, 8, 9]
        assert log.highest_instance() == 9

    def test_crash_in_memory_loses_everything(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.IN_MEMORY)
        log.append(0, 1, _value(), 10)
        log.crash()
        assert len(log) == 0
        assert log.lost_on_crash == 1

    def test_crash_async_loses_unflushed_tail_only(self):
        env = Environment()
        log = WriteAheadLog(env, mode=StorageMode.ASYNC_HDD, flush_interval=0.01)
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
        store = CheckpointStore(env, keep=2)
        first = store.save(CheckpointId.from_mapping({0: 1}), state={"a": 1}, size_bytes=100)
        second = store.save(CheckpointId.from_mapping({0: 2}), state={"a": 2}, size_bytes=100)
        assert store.latest() is second
        assert store._checkpoints == [first, second]

    def test_keep_limit_discards_oldest(self):
        env = Environment()
        store = CheckpointStore(env, keep=2)
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

    def test_keep_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointStore(Environment(), keep=0)

    def test_empty_store_has_no_latest(self):
        assert CheckpointStore(Environment()).latest() is None
