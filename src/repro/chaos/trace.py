"""Delivery-trace recording for the invariant oracle.

The oracle reasons about *what each learner delivered, in what order* —
:class:`TraceRecorder` captures exactly that.  It attaches to any
:class:`~repro.multiring.process.MultiRingProcess` (including service
replicas) by wrapping its ``on_deliver`` hook, and tracks crash/restart
*incarnations*: a process that crashes and recovers legitimately re-delivers
messages below its recovery point, so per-learner uniqueness and ordering are
judged within one incarnation, never across the crash boundary.

Message identity is the delivered payload (scenario workloads use globally
unique payloads), so traces compose directly with the sent-message registry:
``record_sent`` declares every multicast the workload performed, and the
oracle cross-checks deliveries against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Set

__all__ = ["DeliveryRecord", "SentRecord", "ProcessTrace", "TraceRecorder"]


@dataclass(frozen=True)
class DeliveryRecord:
    """One application delivery observed at a learner."""

    time: float
    incarnation: int
    group: int
    instance: int
    payload: Hashable


@dataclass
class SentRecord:
    """One message the workload multicast (possibly retried by the runner)."""

    payload: Hashable
    sender: str
    group: int
    time: float
    retries: int = 0


class ProcessTrace:
    """Everything one process delivered, split by incarnation."""

    def __init__(self, name: str, groups: Set[int]) -> None:
        self.name = name
        #: groups the process subscribes to (its learner subscriptions)
        self.groups = set(groups)
        self.records: List[DeliveryRecord] = []
        self.incarnation = 0

    def sequences(self) -> Dict[int, List[DeliveryRecord]]:
        """Delivery records grouped by incarnation, in delivery order."""
        out: Dict[int, List[DeliveryRecord]] = {}
        for record in self.records:
            out.setdefault(record.incarnation, []).append(record)
        return out

    def payloads(self) -> Set[Hashable]:
        """Every payload this process delivered (any incarnation)."""
        return {record.payload for record in self.records}

    def tail(self, count: int = 50) -> List[DeliveryRecord]:
        """The last ``count`` records (for repro artifacts)."""
        return self.records[-count:]


class TraceRecorder:
    """Attaches to learner processes and records their delivery streams."""

    def __init__(self) -> None:
        self.traces: Dict[str, ProcessTrace] = {}
        self.sent: Dict[Hashable, SentRecord] = {}
        #: processes that crashed at least once during the run
        self.crashed_ever: Set[str] = set()

    # ------------------------------------------------------------ attachment
    def attach(self, process) -> ProcessTrace:
        """Start recording ``process``'s deliveries (and restarts).

        The process's ``on_deliver`` / ``on_restart`` hooks are wrapped via
        instance attributes, so subclass behaviour (service replicas applying
        commands) is preserved.
        """
        trace = ProcessTrace(process.name, set(process.subscribed_groups()))
        self.traces[process.name] = trace

        original_deliver = process.on_deliver
        original_crash = process.on_crash
        original_restart = process.on_restart

        def recording_deliver(group_id: int, instance: int, value) -> None:
            trace.records.append(
                DeliveryRecord(
                    time=process.now,
                    incarnation=trace.incarnation,
                    group=group_id,
                    instance=instance,
                    payload=value.payload,
                )
            )
            original_deliver(group_id, instance, value)

        def recording_crash() -> None:
            self.crashed_ever.add(process.name)
            original_crash()

        def recording_restart() -> None:
            trace.incarnation += 1
            original_restart()

        process.on_deliver = recording_deliver
        process.on_crash = recording_crash
        process.on_restart = recording_restart
        return trace

    # -------------------------------------------------------------- sending
    def record_sent(self, payload: Hashable, sender: str, group: int, time: float) -> None:
        """Declare a workload multicast (first send, not a retry)."""
        if payload in self.sent:
            raise ValueError(f"payload sent twice: {payload!r}")
        self.sent[payload] = SentRecord(payload=payload, sender=sender, group=group, time=time)

    def record_retry(self, payload: Hashable) -> None:
        """Declare that the runner re-multicast an undelivered message."""
        self.sent[payload].retries += 1

    # ------------------------------------------------------------ inspection
    def delivered_anywhere(self) -> Set[Hashable]:
        """Payloads delivered by at least one learner (any incarnation)."""
        out: Set[Hashable] = set()
        for trace in self.traces.values():
            out |= trace.payloads()
        return out

    def undelivered(self) -> List[SentRecord]:
        """Sent messages no learner has delivered yet."""
        delivered = self.delivered_anywhere()
        return [record for record in self.sent.values() if record.payload not in delivered]

    def never_crashed(self) -> Set[str]:
        """Traced processes that never crashed during the run."""
        return {name for name in self.traces if name not in self.crashed_ever}

    def delivery_counts(self) -> Dict[str, int]:
        """Per-process total delivery counts (all incarnations)."""
        return {name: len(trace.records) for name, trace in self.traces.items()}
