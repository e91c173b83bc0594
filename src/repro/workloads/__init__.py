"""Workload generators: YCSB A-F, key-value streams, appends and arrival curves."""

from .arrival import ArrivalCurve, constant, flash_crowd
from .kv import preload_keys, update_only_workload, uniform_key
from .log import round_robin_logs, single_log
from .ycsb import (
    RECORD_BYTES,
    YCSB_WORKLOADS,
    WorkloadSpec,
    YCSBWorkload,
    ycsb_key,
)

__all__ = [
    "ArrivalCurve",
    "constant",
    "flash_crowd",
    "preload_keys",
    "update_only_workload",
    "uniform_key",
    "round_robin_logs",
    "single_log",
    "RECORD_BYTES",
    "YCSB_WORKLOADS",
    "WorkloadSpec",
    "YCSBWorkload",
    "ycsb_key",
]
