"""Storage-device models.

Figure 3 of the paper separates five acceptor storage modes: in-memory,
asynchronous disk writes and synchronous disk writes, the latter two on both
magnetic disks (7200-RPM HDD) and solid-state disks.  The entire separation is
driven by where the stable-storage write sits relative to the consensus
critical path:

* **synchronous** — the acceptor must wait for the write to reach the device
  before forwarding its Phase 2B vote, so the per-operation latency includes a
  device access and throughput is capped by the device;
* **asynchronous** — writes are buffered and flushed in the background, so
  the critical path only pays a small buffering cost;
* **in-memory** — no device at all.

The :class:`Disk` model charges a per-operation access latency plus a
size-dependent transfer time, serialises concurrent requests (a device has a
single write head / channel), and supports batched flushes, which is how the
Berkeley-DB-like WAL amortises synchronous writes when batching is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .actor import Environment

__all__ = [
    "DiskProfile",
    "Disk",
    "StorageMode",
    "HDD_PROFILE",
    "SSD_PROFILE",
    "HDD_RANDOM_PROFILE",
]


class StorageMode(Enum):
    """Acceptor storage modes evaluated in Figure 3."""

    IN_MEMORY = "memory"
    ASYNC_HDD = "async-hdd"
    ASYNC_SSD = "async-ssd"
    SYNC_HDD = "sync-hdd"
    SYNC_SSD = "sync-ssd"

    @property
    def synchronous(self) -> bool:
        """Whether the mode forces writes onto the critical path."""
        return self in (StorageMode.SYNC_HDD, StorageMode.SYNC_SSD)

    @property
    def persistent(self) -> bool:
        """Whether the mode writes to a device at all."""
        return self is not StorageMode.IN_MEMORY

    @property
    def ssd(self) -> bool:
        """Whether the backing device is a solid-state disk."""
        return self in (StorageMode.ASYNC_SSD, StorageMode.SYNC_SSD)


@dataclass(frozen=True)
class DiskProfile:
    """Latency/bandwidth parameters of a storage device.

    Attributes
    ----------
    access_latency:
        Fixed cost of one write request reaching the medium (seek + rotation
        for HDDs, flash program latency for SSDs), in seconds.
    bandwidth_bps:
        Sequential write bandwidth in bytes per second.
    name:
        Human-readable label used in reports.
    """

    name: str
    access_latency: float
    bandwidth_bps: float

    def write_time(self, size_bytes: int) -> float:
        """Time for one synchronous write of ``size_bytes``."""
        return self.access_latency + size_bytes / self.bandwidth_bps


#: A 7200-RPM magnetic disk used as a log device: writes are sequential
#: appends, so the per-write cost is dominated by the request overhead and a
#: fraction of a rotation (~1.5 ms), not a full random-access seek.
HDD_PROFILE = DiskProfile(name="hdd", access_latency=0.0015, bandwidth_bps=120e6)

#: A SATA SSD of the paper's era: ~80 µs access, ~350 MB/s sequential writes.
SSD_PROFILE = DiskProfile(name="ssd", access_latency=0.00008, bandwidth_bps=350e6)

#: A magnetic disk doing random accesses (checkpoint reads, cold lookups).
HDD_RANDOM_PROFILE = DiskProfile(name="hdd-random", access_latency=0.008, bandwidth_bps=120e6)


def profile_for_mode(mode: StorageMode) -> Optional[DiskProfile]:
    """Device profile backing a storage mode (``None`` for in-memory)."""
    if not mode.persistent:
        return None
    return SSD_PROFILE if mode.ssd else HDD_PROFILE


class Disk:
    """A single storage device shared by the writes of one process.

    Writes are serialised: a write cannot start before the previous one
    finished, which is what saturates synchronous modes at high request rates.
    Completion is signalled through a callback scheduled on the simulator.
    """

    def __init__(self, env: Environment, profile: DiskProfile, name: str = "disk") -> None:
        self.env = env
        self.profile = profile
        self.name = name
        self._free_at = 0.0
        self._bytes_written = 0
        self._writes = 0
        #: fault-injection hook: every write takes ``_slowdown`` times longer
        #: while a latency spike is active (1.0 = healthy device)
        self._slowdown = 1.0
        env.register_disk(self)

    # ------------------------------------------------------------- accounting
    @property
    def bytes_written(self) -> int:
        """Total bytes written to the device."""
        return self._bytes_written

    @property
    def write_count(self) -> int:
        """Total number of write requests issued."""
        return self._writes

    # -------------------------------------------------------- fault injection

    def set_slowdown(self, factor: float) -> None:
        """Make every subsequent write take ``factor`` times longer.

        Models a degraded device (background GC on an SSD, a remapped sector
        storm on an HDD, a saturated controller).  Only writes issued while
        the spike is active are affected; the chaos harness uses this for its
        disk-latency-spike fault.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self._slowdown = factor

    def clear_slowdown(self) -> None:
        """End a latency spike (back to the profile's nominal timings)."""
        self._slowdown = 1.0

    # ------------------------------------------------------------------ write
    def write(
        self,
        size_bytes: int,
        on_complete: Optional[Callable[..., None]] = None,
        on_complete_args: tuple = (),
    ) -> float:
        """Issue a write of ``size_bytes``.

        Returns the simulation time at which the write will be durable and, if
        provided, schedules ``on_complete(*on_complete_args)`` at that time.
        The caller decides whether to wait (synchronous mode) or continue
        (asynchronous mode).  Passing the callback's arguments separately lets
        hot paths reuse one bound method instead of building a closure per
        write.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        now = self.env.simulator.now
        start = max(now, self._free_at)
        duration = self.profile.write_time(size_bytes)
        if self._slowdown != 1.0:
            duration *= self._slowdown
        finish = start + duration
        self._free_at = finish
        self._bytes_written += size_bytes
        self._writes += 1
        if on_complete is not None:
            self.env.simulator._post(finish - now, on_complete, on_complete_args)
        return finish
