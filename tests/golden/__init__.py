"""Committed exact values: what a seed must reproduce, bit for bit.

``exact.json`` holds SHA-256 digests of whole-deployment delivery logs *with
their timestamps* and the simulated metrics of the pinned figure runs (floats
as ``float.hex``).  ``python -m tests.golden.repin`` rewrites it,
``--check`` regenerates it in memory and names the first key that differs.
A PR that moves a golden says which modelled behaviour changed.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

PATH = Path(__file__).with_name("exact.json")


@functools.cache
def load() -> dict:
    return json.loads(PATH.read_text())


def digest(log) -> str:
    """SHA-256 of a log of plain tuples / strings / ints / floats (``repr`` is exact)."""
    return hashlib.sha256(repr(log).encode()).hexdigest()


def exact_metrics(metrics: dict) -> dict:
    """A runner's metric dict with every float spelled bit-exactly."""
    return {name: float(value).hex() for name, value in sorted(metrics.items())}
