"""Tests of the shared-log state machine and the dLog client API (Table 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dlog.client import DLogCommands, append_request_factory
from repro.dlog.log import SharedLog
from repro.workloads.log import round_robin_logs, single_log


class TestSharedLog:
    def test_append_returns_increasing_positions(self):
        log = SharedLog(0)
        positions = [log.append(1024) for _ in range(5)]
        assert positions == [0, 1, 2, 3, 4]
        assert log.next_position == 5
        assert log.cached_bytes == 5 * 1024

    def test_cache_holds_appended_entries(self):
        log = SharedLog(0)
        position = log.append(100, payload=b"data")
        entry = log.snapshot()["cache"][position]
        assert entry.size_bytes == 100 and entry.payload == b"data"

    def test_trim_creates_segment_and_hides_entries(self):
        log = SharedLog(0)
        for _ in range(10):
            log.append(100)
        segment = log.trim(4)
        assert segment.first_position == 0 and segment.last_position == 4
        assert segment.bytes == 500
        assert sorted(log.snapshot()["cache"]) == list(range(5, 10))
        assert log.trimmed_up_to == 4
        assert len(log.segments) == 1

    def test_cache_eviction_respects_budget(self):
        log = SharedLog(0, cache_bytes=1000)
        for _ in range(20):
            log.append(100)
        assert log.cached_bytes <= 1000
        assert log.cached_entries <= 10
        # the newest entries survive
        cached = log.snapshot()["cache"]
        assert 19 in cached and 0 not in cached

    def test_snapshot_restore_roundtrip(self):
        log = SharedLog(0)
        for _ in range(5):
            log.append(100)
        log.trim(1)
        snapshot = log.snapshot()
        other = SharedLog(0)
        other.restore(snapshot)
        assert other.next_position == 5
        assert other.trimmed_up_to == 1
        assert other.cached_entries == log.cached_entries

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SharedLog(0, cache_bytes=0)
        with pytest.raises(ValueError):
            SharedLog(0).append(-1)

    @given(st.lists(st.integers(10, 1000), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_positions_are_dense_and_monotone(self, sizes):
        log = SharedLog(1)
        positions = [log.append(size) for size in sizes]
        assert positions == list(range(len(sizes)))


class TestTable2Commands:
    def test_append_targets_its_log(self):
        commands = DLogCommands()
        command = commands.append(3, 1024)
        assert command.op == "append" and command.group_id == 3
        assert command.size_bytes > 1024

    def test_multi_append_spans_all_logs_once(self):
        commands = DLogCommands()
        multi = commands.multi_append([2, 0, 2], 512)
        assert [c.group_id for c in multi] == [0, 2]
        assert all(c.op == "multi-append" for c in multi)

    def test_trim(self):
        commands = DLogCommands()
        trim = commands.trim(1, position=7)
        assert trim.op == "trim" and trim.group_id == 1


class TestAppendRequestFactory:
    def test_round_robin_choices(self):
        chooser = round_robin_logs([0, 1, 2])
        assert [chooser(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]
        assert single_log(5)(123) == 5
        with pytest.raises(ValueError):
            round_robin_logs([])

    def test_factory_emits_appends_and_multi_appends(self):
        commands = DLogCommands()
        factory = append_request_factory(
            commands,
            log_chooser=round_robin_logs([0, 1]),
            append_bytes=256,
            multi_append_every=3,
            multi_append_logs=[0, 1],
        )
        first, groups = factory(0)
        assert len(first) == 1 and first[0].op == "append" and groups == [0]
        third, groups3 = factory(2)
        assert [c.op for c in third] == ["multi-append", "multi-append"]
        assert groups3 == [0, 1]
