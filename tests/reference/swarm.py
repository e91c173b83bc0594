"""The open-loop swarm wheel as plain rules: one heap of every client.

Every client's next fire ``(time, index)`` sits in one ``heapq``, the clients
that never fired included; a tick pops everything due, issues, and pushes the
client back one interval later.  ``repro.core.swarm.ClientSwarm`` must issue
in the same order while keeping its unfired clients as a cursor and its
re-arms in a FIFO of columns, with a heap only for re-arms that arrive out
of order.
"""

from __future__ import annotations

import heapq

from repro.core.swarm import ClientSwarm


class HeapWheelSwarm(ClientSwarm):
    """``ClientSwarm`` whose wheel is a single heap of ``(time, index)``."""

    def _arm_wheel(self):
        heap = self._heap
        while self._cold_head is not None:
            heapq.heappush(heap, self._cold_head)
            self._cold_head = self._cold_entry(self._cold_head[1] + 1)
        if not heap:
            self._armed_for = None
            return
        head = heap[0][0]
        if self._armed_for is not None and self._armed_for <= head:
            return
        self._armed_for = head
        # The shipped wheel's timer entry, at the absolute head time.
        sim = self.env.simulator
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._queue, (head, 0, seq, self._wheel_tick, ()))

    def _wheel_tick(self):
        if not self.alive:
            return
        self._armed_for = None
        now = self.now
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, index = heapq.heappop(heap)
            if not self._online[index]:
                continue
            self._issue(index)
            interval = 1.0 / (self._arrival.rate_at(now) / self._n)
            heapq.heappush(heap, (now + interval, index))
        self._arm_wheel()
