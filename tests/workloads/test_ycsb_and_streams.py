"""Tests of the YCSB generator and the simpler workload streams."""

import random

import pytest

from repro.workloads.kv import preload_keys, update_only_workload
from repro.workloads.ycsb import (
    RECORD_BYTES,
    YCSB_WORKLOADS,
    WorkloadSpec,
    YCSBWorkload,
    ycsb_key,
    ycsb_keyspace,
)


class TestYCSBDefinitions:
    def test_all_six_workloads_defined(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_mixes_sum_to_one(self):
        for spec in YCSB_WORKLOADS.values():
            assert sum(w for _, w in spec.mix()) == pytest.approx(1.0)

    def test_keyspace(self):
        keyspace = ycsb_keyspace(10)
        assert len(keyspace) == 10
        assert all(size == RECORD_BYTES for size in keyspace.values())
        assert ycsb_key(3) in keyspace


class TestYCSBGenerator:
    def _workload(self, name, seed=1, records=500):
        return YCSBWorkload(YCSB_WORKLOADS[name], record_count=records, rng=random.Random(seed))

    def test_workload_a_mixes_reads_and_updates(self):
        workload = self._workload("A")
        ops = [workload.next_operation()[0] for _ in range(1000)]
        reads, updates = ops.count("read"), ops.count("update")
        assert 350 < reads < 650
        assert reads + updates == 1000

    def test_workload_c_is_read_only(self):
        workload = self._workload("C")
        assert {workload.next_operation()[0] for _ in range(200)} == {"read"}

    def test_workload_d_inserts_extend_the_keyspace(self):
        workload = self._workload("D", records=100)
        inserted = [key for op, key, _size, _end in (workload.next_operation() for _ in range(500))
                    if op == "insert"]
        assert inserted
        assert inserted == [ycsb_key(100 + i) for i in range(len(inserted))]

    def test_workload_e_generates_bounded_scans(self):
        workload = self._workload("E")
        scans = [op for op in (workload.next_operation() for _ in range(500)) if op[0] == "scan"]
        assert scans
        for op, start, _size, end in scans:
            assert end is not None and end >= start

    def test_workload_f_contains_read_modify_write(self):
        workload = self._workload("F")
        ops = {workload.next_operation()[0] for _ in range(300)}
        assert ops == {"read", "read-modify-write"}

    def test_keys_stay_in_range(self):
        workload = self._workload("A", records=50)
        for _ in range(500):
            op, key, _size, _end = workload.next_operation()
            assert key in ycsb_keyspace(50)

    def test_determinism_per_seed(self):
        first_gen = self._workload("A", seed=9)
        first = [first_gen.next_operation() for _ in range(50)]
        second_gen = self._workload("A", seed=9)
        second = [second_gen.next_operation() for _ in range(50)]
        assert first == second

    def test_requires_records(self):
        with pytest.raises(ValueError):
            YCSBWorkload(YCSB_WORKLOADS["A"], record_count=0, rng=random.Random(1))

    @pytest.mark.parametrize("distribution", ["uniform", "Zipfian"])
    def test_an_unknown_distribution_is_refused(self, distribution):
        with pytest.raises(ValueError, match="unknown request distribution"):
            WorkloadSpec(name="X", read=1.0, distribution=distribution)

    def test_callable_interface(self):
        workload = self._workload("B")
        op, key, size, end = workload(0)
        assert op in ("read", "update")


class TestSimpleWorkloads:
    def test_update_only_workload(self):
        workload = update_only_workload(random.Random(1), key_count=10, value_bytes=256)
        for i in range(20):
            op, key, size, end = workload(i)
            assert op == "update" and size == 256 and key.startswith("key")

    def test_preload_keys_match_workload_prefix(self):
        keys = preload_keys(5, value_bytes=64)
        assert len(keys) == 5
        assert all(size == 64 for size in keys.values())
        workload = update_only_workload(random.Random(3), key_count=5)
        assert workload(0)[1] in keys
