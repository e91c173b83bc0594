"""Write-ahead instance log (Berkeley DB JE substitute).

The paper's acceptors persist Phase 1B / Phase 2B responses with the Java
edition of Berkeley DB (Section 7.1), either synchronously (each instance
written one by one, batching disabled — Section 8.2) or asynchronously
(buffered, flushed in the background).

:class:`WriteAheadLog` keeps per-instance records on an
:class:`~repro.storage.slab.InstanceSlab` (the "database": one flag per record
that logs the vote the slab already holds, a :class:`LogRecord` of its own
otherwise) and charges the device model for the bytes written.  In synchronous mode the
caller receives the durability completion time and must not act before it; in
asynchronous mode records are buffered and a background flush writes them in
batches, so the caller continues immediately but a crash may lose the tail of
the buffer — exactly the durability/latency trade-off of Figure 3.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Callable, List, Optional

from ..sim.actor import Environment
from ..sim.disk import Disk, StorageMode, profile_for_mode
from .slab import LOGGED, InstanceSlab, LogRecord

__all__ = ["LogRecord", "WriteAheadLog"]

#: Fixed per-record framing written to the device on top of the payload.
_RECORD_OVERHEAD = 64


class WriteAheadLog:
    """Per-acceptor durable log of consensus votes.

    Parameters
    ----------
    env:
        Simulation environment (provides the clock and scheduling).
    mode:
        Storage mode; :data:`~repro.sim.disk.StorageMode.IN_MEMORY` keeps
        records only in memory (no durability, no device charge).
    name:
        Label used for the device (useful when each ring has its own disk, as
        in the vertical-scalability experiment of Figure 6).
    disk:
        Optional externally created device, allowing several logs to share a
        disk or an experiment to pin each ring to a dedicated disk.
    """

    #: Background flush period for asynchronous modes (seconds).
    FLUSH_INTERVAL = 0.005

    def __init__(
        self,
        env: Environment,
        mode: StorageMode = StorageMode.IN_MEMORY,
        name: str = "wal",
        disk: Optional[Disk] = None,
    ) -> None:
        self.env = env
        self.mode = mode
        self.name = name
        self._simulator = env.simulator
        profile = profile_for_mode(mode)
        self.disk: Optional[Disk] = None
        if profile is not None:
            self.disk = disk or Disk(env, profile, name=f"{name}.disk")
        #: the records' store; an acceptor keeps its votes and decisions on it
        self.slab = InstanceSlab()
        #: instances appended since the last flush, and their device bytes
        self._pending = array("q")
        self._pending_bytes = 0
        self._flush_scheduled = False
        # Mode flags resolved once: append() runs per vote on the ring path.
        self._memory_mode = mode is StorageMode.IN_MEMORY or self.disk is None
        self._synchronous = mode.synchronous

    # ------------------------------------------------------------------ write
    def append(
        self,
        instance: int,
        ballot: int,
        value: Any,
        size_bytes: int,
        on_durable: Optional[Callable[..., None]] = None,
        on_durable_args: tuple = (),
    ) -> Optional[float]:
        """Record the acceptor's vote for ``instance``.

        Returns the simulation time at which the record is durable for
        synchronous modes (``on_durable(*on_durable_args)`` fires then), or
        ``None`` for in-memory and asynchronous modes (``on_durable`` fires
        immediately in that case because the caller does not wait for
        durability).  The separate args tuple lets the per-hop ring path pass
        a bound method instead of allocating a closure per vote.
        """
        slab = self.slab
        if slab.unlogged == instance:
            # Every append of a steady ring: the acceptor appended this vote
            # to the columns a moment ago and is logging it — one flag.
            slab.unlogged = -1
            slab.flags[-1] |= LOGGED
        else:
            shared = slab.is_vote(instance, value, ballot) and value.size_bytes == size_bytes
            slab.attach(instance, LOGGED, LogRecord(instance, ballot, value, size_bytes), shared)

        if self._memory_mode:
            if on_durable is not None:
                self._simulator._post(0.0, on_durable, on_durable_args)
            return None

        if self._synchronous:
            # Synchronous mode with batching disabled: one device write per
            # record (Section 8.2).
            return self.disk.write(
                size_bytes + _RECORD_OVERHEAD,
                on_complete=on_durable,
                on_complete_args=on_durable_args,
            )

        # Asynchronous mode: buffer and flush in the background.
        self._pending.append(instance)
        self._pending_bytes += size_bytes + _RECORD_OVERHEAD
        self._schedule_flush()
        if on_durable is not None:
            self._simulator._post(0.0, on_durable, on_durable_args)
        return None

    def _schedule_flush(self) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        self._simulator._post(self.FLUSH_INTERVAL, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._pending or self.disk is None:
            return
        total = self._pending_bytes
        del self._pending[:]
        self._pending_bytes = 0
        self.disk.write(total)

    # ------------------------------------------------------------------- read
    def get(self, instance: int) -> Optional[LogRecord]:
        """Return the record for ``instance`` (``None`` when absent/trimmed)."""
        return self.slab.get(instance, LOGGED)

    def __contains__(self, instance: int) -> bool:
        return self.slab.has(instance, LOGGED)

    def __len__(self) -> int:
        return len(self.slab.instances(LOGGED))

    def instances(self) -> List[int]:
        """Sorted instance numbers currently in the log."""
        return self.slab.instances(LOGGED)

    def highest_instance(self) -> int:
        """Highest instance recorded, or -1 when the log is empty."""
        return self.slab.highest(LOGGED)

    # ------------------------------------------------------------------ crash
    def crash(self) -> None:
        """Simulate a process crash.

        In-memory logs lose everything.  Persistent logs keep every record
        already flushed; asynchronous logs lose the records still sitting in
        the flush buffer.
        """
        slab = self.slab
        if self.mode is StorageMode.IN_MEMORY:
            slab.drop(LOGGED, sys.maxsize)
            return
        if not self.mode.synchronous and self._pending:
            for instance in self._pending:
                slab.detach(instance, LOGGED)
            del self._pending[:]
            self._pending_bytes = 0
