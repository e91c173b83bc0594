"""Yahoo! Cloud Serving Benchmark workloads A-F.

Figure 4 drives MRP-Store, the eventually consistent baseline and the
single-server baseline with YCSB.  The six core workloads are reproduced with
their standard definitions:

========  =======================================  =================
Workload  Operation mix                            Request distribution
========  =======================================  =================
A         50 % read / 50 % update                  zipfian
B         95 % read / 5 % update                   zipfian
C         100 % read                               zipfian
D         95 % read / 5 % insert                   latest
E         95 % scan / 5 % insert                   zipfian (scan start)
F         50 % read / 50 % read-modify-write       zipfian
========  =======================================  =================

Records follow YCSB defaults: 10 fields of 100 bytes (1 KB per record); scans
touch up to 100 consecutive keys.  The generator is deterministic given its
random stream, so experiments are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.random import LatestGenerator, ZipfianGenerator, weighted_choice

__all__ = ["YCSB_WORKLOADS", "YCSBWorkload", "WorkloadSpec", "ycsb_keyspace"]

#: A generated operation: ``(op, key, value_size, end_key)``.
Operation = Tuple[str, str, int, Optional[str]]

#: YCSB default record size: 10 fields x 100 bytes.
RECORD_BYTES = 1000

#: YCSB default maximum scan length.
MAX_SCAN_LENGTH = 100


#: The request distributions the generators implement.
DISTRIBUTIONS = ("zipfian", "latest")


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one YCSB workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    read_modify_write: float = 0.0
    distribution: str = "zipfian"

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown request distribution: {self.distribution!r}")

    def mix(self) -> List[Tuple[str, float]]:
        """The non-zero (operation, weight) pairs."""
        pairs = [
            ("read", self.read),
            ("update", self.update),
            ("insert", self.insert),
            ("scan", self.scan),
            ("read-modify-write", self.read_modify_write),
        ]
        return [(op, w) for op, w in pairs if w > 0]


#: The six core workloads with their standard mixes.
YCSB_WORKLOADS: Dict[str, WorkloadSpec] = {
    "A": WorkloadSpec(name="A", read=0.5, update=0.5, distribution="zipfian"),
    "B": WorkloadSpec(name="B", read=0.95, update=0.05, distribution="zipfian"),
    "C": WorkloadSpec(name="C", read=1.0, distribution="zipfian"),
    "D": WorkloadSpec(name="D", read=0.95, insert=0.05, distribution="latest"),
    "E": WorkloadSpec(name="E", scan=0.95, insert=0.05, distribution="zipfian"),
    "F": WorkloadSpec(name="F", read=0.5, read_modify_write=0.5, distribution="zipfian"),
}


def ycsb_key(index: int) -> str:
    """The YCSB key for record ``index`` (zero-padded for stable sorting)."""
    return f"user{index:012d}"


def ycsb_keyspace(record_count: int, record_bytes: int = RECORD_BYTES) -> Dict[str, int]:
    """The initial database: ``record_count`` records of ``record_bytes`` each."""
    return {ycsb_key(i): record_bytes for i in range(record_count)}


class YCSBWorkload:
    """A deterministic generator of YCSB operations.

    Parameters
    ----------
    spec:
        One of :data:`YCSB_WORKLOADS` (or a custom :class:`WorkloadSpec`).
    record_count:
        Number of records pre-loaded in the database.
    rng:
        Random stream (seeded by the experiment for reproducibility).
    record_bytes:
        Value size written by updates and inserts.
    max_scan_length:
        Upper bound of scan lengths (uniformly chosen per scan).
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        record_count: int,
        rng: random.Random,
        record_bytes: int = RECORD_BYTES,
        max_scan_length: int = MAX_SCAN_LENGTH,
    ) -> None:
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        self.spec = spec
        self.record_bytes = record_bytes
        self.max_scan_length = max_scan_length
        self._rng = rng
        self._insert_count = record_count
        self._mix = spec.mix()
        if spec.distribution == "latest":
            self._latest = LatestGenerator(record_count, rng)
            self._zipf = None
        else:
            self._latest = None
            self._zipf = ZipfianGenerator(record_count, rng)

    # ------------------------------------------------------------------ keys
    def _next_key_index(self) -> int:
        if self._latest is not None:
            return min(self._latest.next(), self._insert_count - 1)
        assert self._zipf is not None
        return min(self._zipf.next(), self._insert_count - 1)

    # ------------------------------------------------------------ operations
    def next_operation(self, sequence: int = 0) -> Operation:
        """Generate the next operation (deterministic given the stream state)."""
        op = weighted_choice(self._rng, self._mix)
        if op == "insert":
            key = ycsb_key(self._insert_count)
            self._insert_count += 1
            if self._latest is not None:
                self._latest.record_insert()
            return ("insert", key, self.record_bytes, None)
        key = ycsb_key(self._next_key_index())
        if op == "read":
            return ("read", key, 0, None)
        if op == "update":
            return ("update", key, self.record_bytes, None)
        if op == "read-modify-write":
            return ("read-modify-write", key, self.record_bytes, None)
        if op == "scan":
            length = self._rng.randint(1, self.max_scan_length)
            start_index = self._next_key_index()
            end_key = ycsb_key(min(start_index + length, self._insert_count - 1))
            return ("scan", ycsb_key(start_index), 0, end_key)
        raise ValueError(f"unknown operation in mix: {op}")

    def __call__(self, sequence: int) -> Operation:
        return self.next_operation(sequence)
