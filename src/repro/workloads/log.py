"""Append workloads for the distributed-log experiments (Figures 5 and 6)."""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["round_robin_logs", "single_log"]


def single_log(log_id: int) -> Callable[[int], int]:
    """Every append goes to the same log (Figure 5's single-ledger clients)."""

    def chooser(sequence: int) -> int:
        return log_id

    return chooser


def round_robin_logs(log_ids: Sequence[int]) -> Callable[[int], int]:
    """Appends rotate over ``log_ids`` (Figure 6's per-ring load)."""
    logs = list(log_ids)
    if not logs:
        raise ValueError("need at least one log")

    def chooser(sequence: int) -> int:
        return logs[sequence % len(logs)]

    return chooser

