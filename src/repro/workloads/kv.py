"""Key-value request streams used outside YCSB.

The scalability experiments drive MRP-Store with simpler workloads than YCSB:

* Figure 7 uses an *update-only* workload of 1 KB commands, each client
  addressing only its local partition;
* the baseline experiments use fixed-size dummy commands.

This module provides those generators in the shape expected by
:func:`repro.kvstore.client.kv_request_factory` — a callable from the request
sequence number to ``(op, key, value_size, end_key)``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

__all__ = ["update_only_workload", "uniform_key"]

Operation = Tuple[str, str, int, Optional[str]]


def uniform_key(rng: random.Random, key_count: int, prefix: str = "key") -> str:
    """A uniformly random key out of ``key_count`` keys."""
    return f"{prefix}{rng.randint(0, key_count - 1):010d}"


def update_only_workload(
    rng: random.Random,
    key_count: int = 100_000,
    value_bytes: int = 1024,
    key_prefix: str = "key",
) -> Callable[[int], Operation]:
    """The update-only workload of the horizontal-scalability experiment.

    Every request updates a uniformly random key with a 1 KB value
    (Section 8.4.2).
    """

    def workload(sequence: int) -> Operation:
        return ("update", uniform_key(rng, key_count, key_prefix), value_bytes, None)

    return workload


def preload_keys(key_count: int, value_bytes: int = 1024, key_prefix: str = "key") -> Dict[str, int]:
    """The initial dataset matching the workloads above."""
    return {f"{key_prefix}{i:010d}": value_bytes for i in range(key_count)}
