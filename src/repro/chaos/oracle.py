"""Invariant oracle: the paper's atomic multicast properties as checks.

Section 2 defines atomic multicast by integrity, validity, uniform agreement
and acyclic order.  :func:`check_delivery_properties` evaluates all four over
the delivery traces a :class:`~repro.chaos.trace.TraceRecorder` captured,
generalising ``tests/integration/test_atomic_multicast_properties.py`` into
reusable library code the chaos runner (and any future test) can call:

* **integrity** — within one incarnation a learner delivers a message at most
  once, only if it was actually multicast, only in the group it was multicast
  to, and only if the learner subscribes to that group;
* **uniform agreement** — if *any* learner delivered m (even one that crashed
  afterwards), every correct subscriber of m's group delivers m;
* **validity** — a message multicast by a correct process is eventually
  delivered by every correct subscriber of its group;
* **acyclic order** — the union of all per-learner delivery orders (each
  incarnation contributes its total order) contains no cycle.  This subsumes
  the pairwise formulation: two learners disagreeing on the relative order of
  two messages form a 2-cycle.

"Correct" follows the classic definition: a process that never crashed during
the run.  A crashed-and-recovered learner still contributes to integrity and
acyclicity (per incarnation) and its deliveries still *trigger* uniform
agreement obligations for the correct learners.

Service-level checks (:func:`check_store_convergence`,
:func:`check_log_convergence`) verify that replicas of one partition end the
run in identical states — the observable consequence of ordered delivery at
the MRP-Store / dLog layer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from .trace import TraceRecorder

__all__ = [
    "Violation",
    "check_delivery_properties",
    "check_store_convergence",
    "check_log_convergence",
]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by the oracle.

    ``payloads`` are the delivered messages the detail names (none for the
    service-level checks); a repro artifact keeps every trace record of them.
    """

    prop: str
    detail: str
    payloads: Tuple[Hashable, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.prop}] {self.detail}"


def _integrity(recorder: TraceRecorder, violations: List[Violation]) -> None:
    sent = recorder.sent
    for name, trace in recorder.traces.items():
        for incarnation, records in trace.sequences().items():
            seen: Set[Hashable] = set()
            for record in records:
                payload = record.payload
                if payload in seen:
                    violations.append(Violation(
                        "integrity",
                        f"{name} (incarnation {incarnation}) delivered {payload!r} twice",
                        (payload,),
                    ))
                seen.add(payload)
                origin = sent.get(payload)
                if origin is None:
                    violations.append(Violation(
                        "integrity",
                        f"{name} delivered {payload!r} which was never multicast",
                        (payload,),
                    ))
                    continue
                if origin.group != record.group:
                    violations.append(Violation(
                        "integrity",
                        f"{name} delivered {payload!r} in group {record.group}, "
                        f"but it was multicast to group {origin.group}",
                        (payload,),
                    ))
                if record.group not in trace.groups:
                    violations.append(Violation(
                        "integrity",
                        f"{name} delivered {payload!r} from group {record.group} "
                        f"it does not subscribe to",
                        (payload,),
                    ))


def _agreement_and_validity(
    recorder: TraceRecorder,
    violations: List[Violation],
    check_validity: bool,
) -> None:
    correct = recorder.never_crashed()
    delivered_by: Dict[str, Set[Hashable]] = {
        name: trace.payloads() for name, trace in recorder.traces.items()
    }
    anywhere = recorder.delivered_anywhere()
    for payload, origin in recorder.sent.items():
        group = origin.group
        delivered_somewhere = payload in anywhere
        if check_validity and not delivered_somewhere:
            # Nobody delivered it at all: validity is violated for every
            # correct subscriber at once; report it as one finding.
            subscribers = [
                name for name in correct if group in recorder.traces[name].groups
            ]
            if subscribers:
                violations.append(Violation(
                    "validity",
                    f"{payload!r} (multicast to group {group} by {origin.sender}, "
                    f"retries={origin.retries}) was never delivered by any learner",
                    (payload,),
                ))
            continue
        if not delivered_somewhere:
            continue
        for name in correct:
            trace = recorder.traces[name]
            if group not in trace.groups:
                continue
            if payload not in delivered_by[name]:
                violations.append(Violation(
                    "agreement",
                    f"{payload!r} (group {group}) was delivered by some learner "
                    f"but not by correct subscriber {name}",
                    (payload,),
                ))


def _acyclic_order(recorder: TraceRecorder, violations: List[Violation]) -> None:
    # Union precedence graph: each incarnation's delivery sequence contributes
    # edges between consecutive deliveries; a topological sort certifies the
    # "delivered before" relation acyclic (2-cycles are exactly pairwise
    # relative-order disagreements).
    edges: Dict[Hashable, Set[Hashable]] = defaultdict(set)
    indegree: Dict[Hashable, int] = defaultdict(int)
    nodes: Set[Hashable] = set()
    for trace in recorder.traces.values():
        for records in trace.sequences().values():
            previous = None
            for record in records:
                payload = record.payload
                nodes.add(payload)
                if previous is not None and previous != payload:
                    if payload not in edges[previous]:
                        edges[previous].add(payload)
                        indegree[payload] += 1
                previous = payload
    queue = [node for node in nodes if indegree[node] == 0]
    visited = 0
    while queue:
        node = queue.pop()
        visited += 1
        for succ in edges[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    if visited != len(nodes):
        cyclic = sorted(
            ((repr(node), node) for node in nodes if indegree[node] > 0),
            key=lambda named: named[0],
        )[:8]
        violations.append(Violation(
            "acyclic-order",
            "the cross-learner 'delivered before' relation has a cycle "
            f"involving {', '.join(text for text, _node in cyclic)}",
            tuple(node for _text, node in cyclic),
        ))


def check_delivery_properties(
    recorder: TraceRecorder,
    check_validity: bool = True,
) -> List[Violation]:
    """Evaluate the four atomic multicast properties over recorded traces.

    Parameters
    ----------
    recorder:
        The trace recorder attached to every learner of the deployment, with
        its sent-message registry filled by the workload.
    check_validity:
        Validity ("every sent message is eventually delivered") only holds if
        the run quiesced with all faults healed and lost client submissions
        retried; runners that cannot guarantee that disable the check and
        still get integrity, agreement and acyclicity.
    """
    violations: List[Violation] = []
    _integrity(recorder, violations)
    _agreement_and_validity(recorder, violations, check_validity)
    _acyclic_order(recorder, violations)
    return violations


# --------------------------------------------------------------------------
# Service-level invariants
# --------------------------------------------------------------------------

def check_store_convergence(replicas_by_group: Dict[int, Sequence]) -> List[Violation]:
    """MRP-Store: replicas of one partition must hold identical databases."""
    violations: List[Violation] = []
    for group, replicas in replicas_by_group.items():
        if len(replicas) < 2:
            continue
        reference = replicas[0]
        ref_snapshot = reference.store.snapshot()
        for other in replicas[1:]:
            snapshot = other.store.snapshot()
            if snapshot != ref_snapshot:
                only_ref = set(ref_snapshot) - set(snapshot)
                only_other = set(snapshot) - set(ref_snapshot)
                differing = [
                    k for k in set(ref_snapshot) & set(snapshot)
                    if ref_snapshot[k] != snapshot[k]
                ]
                violations.append(Violation(
                    "store-convergence",
                    f"partition {group}: {reference.name} and {other.name} diverge "
                    f"(only in {reference.name}: {sorted(only_ref)[:5]}, "
                    f"only in {other.name}: {sorted(only_other)[:5]}, "
                    f"differing values: {sorted(differing)[:5]})",
                ))
    return violations


def check_log_convergence(replicas: Sequence, log_ids: Iterable[int]) -> List[Violation]:
    """dLog: per-stream prefixes must be gapless and identical across replicas.

    Each replica's cached entries for a log must cover positions
    ``0..next_position-1`` with no holes (gapless prefix), and all replicas
    hosting the log must agree on its length and on the per-position record
    sizes.
    """
    violations: List[Violation] = []
    for log_id in log_ids:
        lengths: Dict[str, int] = {}
        contents: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        for replica in replicas:
            log = replica.logs.get(log_id)
            if log is None:
                lengths[replica.name] = 0
                contents[replica.name] = ()
                continue
            entries = sorted(
                (entry.position, entry.size_bytes)
                for entry in log.snapshot()["cache"].values()
            )
            positions = [position for position, _ in entries]
            expected = list(range(log.trimmed_up_to + 1, log.next_position))
            if positions != expected:
                missing = sorted(set(expected) - set(positions))[:8]
                violations.append(Violation(
                    "dlog-gapless",
                    f"log {log_id} at {replica.name}: cached positions have gaps "
                    f"(missing {missing})",
                ))
            lengths[replica.name] = log.next_position
            contents[replica.name] = tuple(entries)
        if len(set(lengths.values())) > 1:
            violations.append(Violation(
                "dlog-agreement",
                f"log {log_id}: replicas disagree on length: {lengths}",
            ))
        elif len(set(contents.values())) > 1:
            violations.append(Violation(
                "dlog-agreement",
                f"log {log_id}: replicas agree on length but not contents",
            ))
    return violations
