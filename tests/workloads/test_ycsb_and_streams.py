"""Tests of the YCSB generator and the simpler workload streams."""

import math
import random

import pytest

from repro.workloads.kv import preload_keys, update_only_workload
from repro.workloads.ycsb import (
    RECORD_BYTES,
    YCSB_WORKLOADS,
    WorkloadSpec,
    YCSBWorkload,
    ycsb_key,
)
from tests.reference.ycsb import weighted_choice


class _ConstantRng(random.Random):
    """Every ``random()`` draw is ``point`` (the operation's and the keys')."""

    def __init__(self, point):
        super().__init__(0)
        self.point = point

    def random(self):
        return self.point

    def getrandbits(self, k):  # keeps randint (scan lengths) off random()
        return super().getrandbits(k)


class TestYCSBDefinitions:
    def test_all_six_workloads_defined(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_mixes_sum_to_one(self):
        for spec in YCSB_WORKLOADS.values():
            assert sum(w for _, w in spec.mix()) == pytest.approx(1.0)

    def test_keyspace(self):
        workload = YCSBWorkload(YCSB_WORKLOADS["A"], record_count=10, rng=random.Random(1))
        keyspace = workload.keyspace()
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
        keyspace = workload.keyspace()
        for _ in range(500):
            op, key, _size, _end = workload.next_operation()
            assert key in keyspace

    def test_determinism_per_seed(self):
        first_gen = self._workload("A", seed=9)
        first = [first_gen.next_operation() for _ in range(50)]
        second_gen = self._workload("A", seed=9)
        second = [second_gen.next_operation() for _ in range(50)]
        assert first == second

    @pytest.mark.parametrize("name", sorted(YCSB_WORKLOADS))
    @pytest.mark.parametrize("point", [
        0.0, 0.05, math.nextafter(0.05, 1.0), 0.5, math.nextafter(0.5, 1.0),
        0.95, math.nextafter(0.95, 0.0), math.nextafter(1.0, 0.0),
    ])
    def test_the_draw_matches_a_per_draw_resum_of_the_mix(self, name, point):
        # The cumulative weights are summed once; at every boundary the draw
        # must pick what re-summing the mix for each draw picks.
        spec = YCSB_WORKLOADS[name]
        workload = YCSBWorkload(spec, record_count=50, rng=_ConstantRng(point))
        assert workload.next_operation()[0] == weighted_choice(_ConstantRng(point), spec.mix())

    def test_an_empty_mix_is_refused(self):
        with pytest.raises(ValueError, match="positive weight"):
            YCSBWorkload(WorkloadSpec(name="X"), record_count=10, rng=random.Random(1))

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
