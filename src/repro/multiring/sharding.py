"""Ring components: the unit of sharded execution.

Multi-Ring Paxos scales by adding independent rings (Section 6 of the paper);
the parallel engine (:mod:`repro.sim.parallel`) exploits exactly that
independence to spread a simulated deployment over real cores.  The unit of
sharding is a **ring component**: the set of rings transitively connected by
a shared process.  A process that proposes to or accepts in two rings ties
those rings together — it generates traffic in both — so they must execute
in the same shard.

A process that is a **learner only** need not couple the rings it subscribes
to: its deterministic merge is a pure function of the per-ring decision
streams, so a caller that leaves such learners out of ``ring_members`` gets
components that a parent-side merge stage can reunite.  The chaos planner
(:func:`repro.chaos.scenario.shardable_components`) does exactly that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

__all__ = ["ring_components"]


def ring_components(ring_members: Mapping[int, Iterable[str]]) -> List[List[int]]:
    """Partition rings into components connected by shared processes.

    ``ring_members`` maps each ring id to the names of the member processes
    that couple it (every name counts, whatever its role).  Returns
    components as sorted lists of ring ids, ordered by their smallest ring
    id, so the partition is deterministic.

    >>> ring_components({0: ["a", "b"], 1: ["c"], 2: ["b", "d"]})
    [[0, 2], [1]]
    """
    parent: Dict[int, int] = {ring: ring for ring in ring_members}

    def find(ring: int) -> int:
        root = ring
        while parent[root] != root:
            root = parent[root]
        while parent[ring] != root:
            parent[ring], ring = root, parent[ring]
        return root

    owner_of_process: Dict[str, int] = {}
    for ring in sorted(ring_members):
        for name in ring_members[ring]:
            if name in owner_of_process:
                a, b = find(owner_of_process[name]), find(ring)
                if a != b:
                    parent[max(a, b)] = min(a, b)
            else:
                owner_of_process[name] = ring
    components: Dict[int, List[int]] = {}
    for ring in sorted(ring_members):
        components.setdefault(find(ring), []).append(ring)
    return [components[root] for root in sorted(components)]
