"""Coordinator-driven acceptor log trimming (Section 5.2).

Periodically the coordinator of multicast group ``x`` asks the replicas that
subscribe to ``x`` for the highest consensus instance each has safely
checkpointed (``k[x]_p``).  After collecting a *trim quorum* ``Q_T`` of
answers it computes

    K[x]_T = min over the quorum of k[x]_p          (Predicate 2)

and instructs the acceptors of ring ``x`` to delete data about every instance
up to ``K[x]_T``.  Taking the minimum over a quorum — rather than, say, the
maximum — is what makes recovery safe: combined with the requirement that the
recovery quorum ``Q_R`` intersects ``Q_T``, a recovering replica that picks
the most recent checkpoint available in ``Q_R`` is guaranteed the acceptors
still hold every instance the checkpoint is missing (Predicates 3-5).

The message exchange lives in :class:`repro.ringpaxos.node.RingNode`, which
calls this module's pure quorum computation on every report, so the unit and
property tests of these two functions test the live rule.
"""

from __future__ import annotations

from typing import Mapping, Optional

__all__ = ["compute_trim_point", "trim_quorum_size"]


def trim_quorum_size(replica_count: int) -> int:
    """Default trim quorum: a majority of the group's replicas.

    A ring whose learners were all evicted still needs one report.
    """
    if replica_count < 0:
        raise ValueError("replica_count must not be negative")
    return replica_count // 2 + 1


def compute_trim_point(reports: Mapping[str, int], quorum: int) -> Optional[int]:
    """``K[x]_T`` from the collected ``k[x]_p`` reports, or ``None`` if below quorum.

    Parameters
    ----------
    reports:
        ``{replica_name: safe_instance}`` as received so far.
    quorum:
        The trim quorum size ``|Q_T|``.
    """
    if quorum <= 0:
        raise ValueError("quorum must be positive")
    if len(reports) < quorum:
        return None
    trim_point = min(reports.values())
    if trim_point < 0:
        return None
    return trim_point
