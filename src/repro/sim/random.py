"""Seeded random-number streams for reproducible experiments.

Every stochastic component (network jitter, disk latency variation, workload
key choice, client think time) draws from its own named stream derived from a
single experiment seed.  This keeps experiments reproducible while ensuring
that, say, changing the workload does not perturb the network jitter sequence.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence, TypeVar

__all__ = ["SeededStreams", "ZipfianGenerator", "LatestGenerator"]

T = TypeVar("T")


class SeededStreams:
    """Factory of independent, named :class:`random.Random` streams.

    >>> streams = SeededStreams(42)
    >>> a = streams.stream("network")
    >>> b = streams.stream("workload")
    >>> a is streams.stream("network")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).hexdigest()
            self._streams[name] = random.Random(int(digest[:16], 16))
        return self._streams[name]


class ZipfianGenerator:
    """Zipfian-distributed integer generator as used by YCSB.

    This is the classic Gray et al. rejection-free algorithm also used by the
    YCSB reference implementation: item 0 is the most popular.  The skew
    constant defaults to YCSB's 0.99.
    """

    def __init__(self, item_count: int, rng: random.Random, theta: float = 0.99) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self._items = item_count
        self._theta = theta
        self._rng = rng
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # For item_count <= 2 the classic eta expression degenerates (at
        # n == 2, zeta(2) == zeta(n) zeroes the denominator; at n == 1 it goes
        # negative).  Those keyspaces never reach the eta branch of next() —
        # every draw lands in the first two analytic branches — so eta only
        # needs a well-defined placeholder there.
        if self._zetan == self._zeta2:
            self._eta = 0.0
        else:
            self._eta = (1 - (2.0 / item_count) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        """Draw the next key (0 is the hottest)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self._theta:
            return 1
        key = int(self._items * (self._eta * u - self._eta + 1) ** self._alpha)
        # Floating-point round-off at u → 1 can land exactly on item_count;
        # clamp so the YCSB semantics (keys in [0, item_count)) always hold.
        return key if key < self._items else self._items - 1


class LatestGenerator:
    """YCSB's "latest" distribution: recently inserted keys are the hottest.

    The underlying zipfian is rebuilt lazily (only once the key space has
    grown by ten percent) because rebuilding the zeta constants is O(n) and
    workload D performs many inserts.
    """

    def __init__(self, item_count: int, rng: random.Random, theta: float = 0.99) -> None:
        self._count = max(item_count, 1)
        self._rng = rng
        self._theta = theta
        self._zipf_items = self._count
        self._zipf = ZipfianGenerator(self._count, rng, theta)

    def next(self) -> int:
        """Draw a key, biased towards the most recent insert."""
        offset = self._zipf.next()
        key = self._count - 1 - offset
        return max(key, 0)

    def record_insert(self) -> None:
        """Tell the generator a new key was inserted (grows the hot end)."""
        self._count += 1
        if self._count > self._zipf_items * 1.1:
            self._zipf_items = self._count
            self._zipf = ZipfianGenerator(self._count, self._rng, self._theta)


def weighted_choice(rng: random.Random, weighted: Sequence[tuple]) -> T:
    """Pick one item from ``[(item, weight), ...]`` proportionally to weight."""
    total = sum(w for _, w in weighted)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for item, weight in weighted:
        acc += weight
        if point <= acc:
            return item
    return weighted[-1][0]
