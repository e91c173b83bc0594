"""Per-actor CPU accounting.

The paper reports coordinator CPU utilisation (Figure 3, bottom-left) and
attributes the in-memory throughput ceiling to the coordinator's CPU.  The
simulator reproduces this by charging every actor a configurable CPU cost per
message handled and per byte processed, and reporting utilisation as

    busy_time / elapsed_time

over a measurement window.  Utilisation can exceed 100 % to represent a
multi-threaded process using more than one core, matching the paper's plot
which goes up to 200 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["CpuAccount", "CpuCostModel"]


@dataclass
class CpuCostModel:
    """CPU cost parameters for a process role.

    Attributes
    ----------
    per_message:
        Seconds of CPU charged for handling one protocol message.
    per_byte:
        Seconds of CPU charged per payload byte (serialisation, checksums,
        copying between queues).
    cores:
        Number of cores available; utilisation is reported relative to one
        core so a fully busy 2-core process reports 200 %.
    """

    per_message: float = 4e-6
    per_byte: float = 2.5e-9
    cores: int = 2


class CpuAccount:
    """Accumulates CPU busy time for one actor."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._window_start = 0.0
        self._window_busy = 0.0

    def charge_message(self, model: CpuCostModel, size_bytes: int) -> None:
        """Charge the cost of processing one message of ``size_bytes``.

        Runs once per protocol message; both operands are non-negative by
        construction.  The ring hop (``MultiRingProcess.on_message``) repeats
        these two lines in its own frame; keep the two in step.
        """
        cost = model.per_message + model.per_byte * size_bytes
        self._window_busy += cost

    def reset_window(self) -> None:
        """Start a new utilisation measurement window at the current time."""
        self._window_start = self._clock()
        self._window_busy = 0.0

    def utilization(self) -> float:
        """Utilisation (fraction of one core) over the current window.

        A value of 1.5 means the process consumed 150 % of one core.
        """
        elapsed = self._clock() - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_busy / elapsed

    def utilization_percent(self) -> float:
        """Utilisation over the current window expressed in percent."""
        return self.utilization() * 100.0
