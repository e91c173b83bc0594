"""Client-side command builders for dLog (Table 2)."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.client import Command

__all__ = ["DLogCommands", "append_request_factory"]

#: Rough per-command framing on the wire.
_COMMAND_OVERHEAD = 40


class DLogCommands:
    """Builds routed commands for the dLog operations of Table 2.

    Each log is backed by the multicast group with the same id, so routing is
    the identity function on log ids.
    """

    def append(self, log_id: int, size_bytes: int) -> Command:
        """``append(l, v)`` — append ``v`` to log ``l``, return its position."""
        return Command(
            op="append",
            args=(size_bytes,),
            group_id=log_id,
            size_bytes=_COMMAND_OVERHEAD + size_bytes,
        )

    def multi_append(self, log_ids: Sequence[int], size_bytes: int) -> List[Command]:
        """``multi-append(L, v)`` — append ``v`` atomically to every log in ``L``.

        One command per involved log; the client must await a response from
        every addressed log (Section 6.2).
        """
        return [
            Command(
                op="multi-append",
                args=(size_bytes,),
                group_id=log_id,
                size_bytes=_COMMAND_OVERHEAD + size_bytes,
            )
            for log_id in sorted(set(log_ids))
        ]

    def trim(self, log_id: int, position: int) -> Command:
        """``trim(l, p)`` — trim log ``l`` up to ``position``."""
        return Command(
            op="trim",
            args=(position,),
            group_id=log_id,
            size_bytes=_COMMAND_OVERHEAD,
        )


def append_request_factory(
    commands: DLogCommands,
    log_chooser: Callable[[int], int],
    append_bytes: int = 1024,
    multi_append_every: Optional[int] = None,
    multi_append_logs: Optional[Sequence[int]] = None,
) -> Callable[[int], Tuple[Sequence[Command], Sequence[int]]]:
    """Request factory for an append-only workload (Figures 5 and 6).

    Parameters
    ----------
    commands:
        The command builder.
    log_chooser:
        Maps the request sequence number to the log to append to.
    append_bytes:
        Size of every appended record (the paper uses 1 KB).
    multi_append_every / multi_append_logs:
        When set, every N-th request becomes a multi-append across the given
        logs, exercising cross-log atomicity.
    """

    def factory(sequence: int) -> Tuple[Sequence[Command], Sequence[int]]:
        if (
            multi_append_every is not None
            and multi_append_logs
            and sequence % multi_append_every == multi_append_every - 1
        ):
            cmds = commands.multi_append(multi_append_logs, append_bytes)
            return cmds, [c.group_id for c in cmds]
        log_id = log_chooser(sequence)
        command = commands.append(log_id, append_bytes)
        return [command], [command.group_id]

    return factory
