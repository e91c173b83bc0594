"""Exact-ish guard on what a run *keeps*: retained bytes per ordered command.

Peak RSS is noise on a shared runner and includes the interpreter; the bytes
``tracemalloc`` still sees allocated after a deterministic run are neither.
Each pinned run — the Figure 3 point unbatched and batched, and a short
``kv-global-open`` call (the ledger's MRP-Store swarm workload) — runs for 0.1
and for 0.2 simulated seconds, the finished deployment is held, and the
**difference quotient** — extra retained bytes over extra ordered commands —
cancels the interpreter baseline and every fixed set-up cost, leaving what one
more command costs for the rest of the run: the acceptors' per-instance state
(``repro.storage.slab``), the learners' out-of-order window, the instruments'
columns, the swarm's wheel, the commands themselves.  Each run is held to a
ceiling a few percent above what the code measured when the ceiling was set;
the numbers before slotted service commands (one key string per YCSB record,
shared size ints, exact-size packs), before run-length throughput columns
(one sample per simulated instant, constant proposer payloads, the swarm's
re-arm FIFO) and before the columnar slab are recorded beside it.

The second test is the slab's point stated directly: a finished unbatched
deployment holds no per-instance ``AcceptorInstance`` / ``LogRecord``
object at all.  The third states the service plane's: a finished
``kv-global-open`` deployment keeps its commands, packs and stored values
without an instance ``__dict__``, and one string per YCSB key however many
commands carry it.  The fourth states the merge stage's: a
``MergeCursor`` whose output is drained keeps nothing per merged instance,
so what it retains is flat in run length.

Run as a script, it also prints each quotient by layer — the top-level
``repro`` subpackage of the file that allocated the bytes — and the types
that hold the most bytes per ordered command (shallow ``sys.getsizeof`` of
everything the finished deployment reaches, an instance ``__dict__`` counted
with its owner), so a regression names the layer and the class that keeps
the object:

    PYTHONPATH=src python tests/bench/test_memory_budget.py
"""

from __future__ import annotations

import gc
import inspect
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.bench.fig3_baseline import run_fig3_point
from repro.bench.fig4_ycsb import run_fig4_point
from repro.core.amcast import AtomicMulticast
from repro.core.client import Command
from repro.core.packing import iter_values
from repro.core.swarm import ClientSwarm
from repro.dlog.log import LogEntry
from repro.kvstore.store import StoredValue
from repro.multiring.merge import MergeCursor, RingSegment
from repro.paxos.instance import AcceptorInstance
from repro.paxos.messages import SKIP, ProposalValue
from repro.ringpaxos.coordinator import PackedValues
from repro.sim.disk import StorageMode
from repro.storage.slab import LogRecord
from repro.workloads.arrival import constant


def fig3(**runner_arguments) -> Callable[[float], object]:
    """The pinned Figure 3 point, run for ``duration`` simulated seconds."""
    return lambda duration: run_fig3_point(
        2048, StorageMode.IN_MEMORY, warmup=0.02, duration=duration, seed=42, **runner_arguments,
    )


def kv_global_open(duration: float):
    """The ledger's MRP-Store swarm workload (100k users, 24k ops/s), shortened."""
    return run_fig4_point(
        "mrp-store", "A", warmup=0.02, duration=duration, seed=42, client_engine="swarm",
        simulated_users=100_000, arrival=constant(24_000.0),
        slo={"gold": 0.020},
    )


def ring_ordered(deployment: AtomicMulticast) -> int:
    """Application values the ring ordered (packed instances opened)."""
    coordinator = deployment.process(deployment.ring(0).coordinator)
    decided = coordinator.node(0).acceptor.decided_from(0)
    return sum(1 for _instance, value in decided for _leaf in iter_values(value))


def swarm_completed(deployment: AtomicMulticast) -> int:
    """Requests the swarm's users got answered (ordered and applied)."""
    (swarm,) = [a for a in deployment.env.actors() if isinstance(a, ClientSwarm)]
    return swarm.completed


#: ``name -> (pinned run, commands it ordered, ceiling, measured, bytes per command
#: before slotted service commands, before run-length throughput columns, before
#: the columnar slab)``
BUDGETS = {
    "unbatched": (
        fig3(threads_per_proposer=10, batching_enabled=False), ring_ordered,
        280.0, 271.4, 271.4, 325.9, 1289.1,
    ),
    "batched": (
        fig3(threads_per_proposer=40, batching_enabled=True), ring_ordered,
        175.0, 169.3, 171.9, 274.0, 354.1,
    ),
    "kv-global-open": (kv_global_open, swarm_completed, 525.0, 509.8, 664.7, 825.6, None),
}


def finished_deployment(run: Callable[[float], object], duration: float) -> AtomicMulticast:
    """The deployment of one pinned run, after the run."""
    deployments: List[AtomicMulticast] = []
    start = AtomicMulticast.start

    def capture(self, *args, **kwargs):
        deployments.append(self)
        return start(self, *args, **kwargs)

    AtomicMulticast.start = capture
    try:
        run(duration)
    finally:
        AtomicMulticast.start = start
    (deployment,) = deployments
    return deployment


def layer_of(filename: str) -> str:
    """The top-level ``repro`` subpackage a source file belongs to."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return "(outside repro)"
    below = parts[parts.index("repro") + 1:]
    return below[0] if len(below) > 1 else below[0].removesuffix(".py")


def reachable(root: object) -> Iterator[object]:
    """Every object ``root`` reaches through ``gc.get_referents``, ``root`` included.

    Classes, modules and module namespaces are not entered: they are the
    interpreter's, not the run's.
    """
    namespaces = {id(vars(module)) for module in list(sys.modules.values())}
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        yield obj
        for referent in gc.get_referents(obj):
            if (
                id(referent) not in seen
                and id(referent) not in namespaces
                and not isinstance(referent, (type, ModuleType))
            ):
                seen.add(id(referent))
                stack.append(referent)


def retained_by_type(run, ordered, duration: float) -> Tuple[Dict[str, int], int]:
    """``({type: shallow bytes the deployment reaches}, commands ordered)`` after one run.

    An instance ``__dict__`` is counted with its owner (3.11 keeps an
    unmaterialised one out of ``sys.getsizeof`` and of the referents).
    """
    gc.collect()
    deployment = finished_deployment(run, duration)
    held: Dict[str, int] = defaultdict(int)
    owned = set()
    for obj in reachable(deployment):
        if id(obj) in owned:
            continue
        size = sys.getsizeof(obj)
        if type(obj).__dictoffset__ and not callable(obj):
            instance_dict = object.__getattribute__(obj, "__dict__")
            owned.add(id(instance_dict))
            size += sys.getsizeof(instance_dict)
        held[type(obj).__qualname__] += size
    return held, ordered(deployment)


def retained(run, ordered, duration: float) -> Tuple[Dict[str, int], int]:
    """``({layer: bytes still allocated}, commands ordered)`` after one pinned run.

    Bytes are grouped by the file that allocated them (``layer_of``);
    ``"(outside repro)"`` is the interpreter, the standard library and tests.
    """
    gc.collect()
    tracemalloc.start()
    try:
        deployment = finished_deployment(run, duration)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held: Dict[str, int] = defaultdict(int)
    for stat in snapshot.statistics("filename"):
        held[layer_of(stat.traceback[0].filename)] += stat.size
    return held, ordered(deployment)


def bytes_per_command(name: str, measure=retained) -> Dict[str, float]:
    """Extra retained bytes per extra ordered command, by layer (or by type) and in all."""
    run, ordered = BUDGETS[name][:2]
    short_bytes, short_commands = measure(run, ordered, 0.1)
    long_bytes, long_commands = measure(run, ordered, 0.2)
    extra = long_commands - short_commands
    quotient = {
        layer: (long_bytes.get(layer, 0) - short_bytes.get(layer, 0)) / extra
        for layer in sorted(set(short_bytes) | set(long_bytes))
    }
    quotient["total"] = (sum(long_bytes.values()) - sum(short_bytes.values())) / extra
    return quotient


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_retained_bytes_per_ordered_command_stay_under_the_ceiling(name):
    _run, _ordered, ceiling, measured, _parent, _before_columns, before_slab = BUDGETS[name]
    cost = bytes_per_command(name)["total"]
    assert cost <= ceiling, (
        f"{name}: {cost:.0f} bytes retained per ordered command, ceiling {ceiling:.0f} "
        f"(measured {measured:.0f} when it was set): something keeps an object per command"
    )
    if name == "unbatched":
        assert cost <= before_slab / 2  # what the slab was accepted on


def per_instance_objects() -> int:
    gc.collect()
    return sum(type(o) in (AcceptorInstance, LogRecord) for o in gc.get_objects())


def test_finished_deployment_holds_no_per_instance_object():
    before = per_instance_objects()  # whatever other tests still hold
    deployment = finished_deployment(BUDGETS["unbatched"][0], 0.1)
    assert ring_ordered(deployment) > 10_000
    assert per_instance_objects() <= before


#: The YCSB records ``kv_global_open`` preloads.
RECORDS = inspect.signature(run_fig4_point).parameters["record_count"].default


def test_finished_kv_deployment_keeps_one_object_per_command():
    deployment = finished_deployment(kv_global_open, 0.1)
    kept: Dict[type, list] = defaultdict(list)
    for obj in reachable(deployment):
        if type(obj) in (Command, PackedValues, StoredValue, LogEntry):
            kept[type(obj)].append(obj)
    commands = kept[Command]
    assert len(commands) >= swarm_completed(deployment) > 2_000
    assert kept[PackedValues] and kept[StoredValue]
    for cls, objects in kept.items():
        assert not any(hasattr(obj, "__dict__") for obj in objects), (
            f"a retained {cls.__name__} carries an instance __dict__"
        )
    keys = [arg for command in commands for arg in command.args if type(arg) is str]
    inserts = sum(command.op == "insert" for command in commands)
    assert len({id(key) for key in keys}) <= RECORDS + inserts
    assert len({id(key) for key in keys}) == len(set(keys)), "a key string formatted per operation"


#: Instances per ring in one barrier's segment, and how many bytes more a
#: drained cursor may keep after four times the instances.
BARRIER_INSTANCES = 500
CURSOR_SLACK_BYTES = 4096


def cursor_retained(instances_per_ring: int) -> int:
    """Bytes a drained two-ring ``MergeCursor`` keeps after ``instances_per_ring``.

    Segments arrive through ``feed_segments`` one barrier at a time, three
    skips to one value, a fresh object per instance (the most a decoded
    frame can hold: the wire shares only what the sender shared); the cursor
    is built and fed under ``tracemalloc`` and held while the snapshot is
    taken.
    """
    gc.collect()
    tracemalloc.start()
    try:
        cursor = MergeCursor([0, 1], retain_history=False)
        for barrier, lo in enumerate(range(0, instances_per_ring, BARRIER_INSTANCES), start=1):
            segments = {
                ring: RingSegment(start=lo, entries=[
                    (i, ProposalValue(SKIP if i % 4 else f"r{ring}i{i}", 8))
                    for i in range(lo, lo + BARRIER_INSTANCES)
                ])
                for ring in (0, 1)
            }
            cursor.feed_segments(segments, watermark=float(barrier))
        del segments
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cursor.drain() == []
    return held


def test_drained_merge_cursor_keeps_nothing_per_instance():
    short, long = cursor_retained(10_000), cursor_retained(40_000)
    assert long - short <= CURSOR_SLACK_BYTES, (
        f"a drained MergeCursor kept {long - short} more bytes after 40k than after 10k "
        f"instances per ring: it keeps something per merged instance"
    )


def print_top(quotient: Dict[str, float], unit: str, top: int) -> None:
    print(f"    ({unit}: {quotient.pop('total'):.1f} bytes per ordered command in all)")
    for name, cost in sorted(quotient.items(), key=lambda item: -abs(item[1]))[:top]:
        if abs(cost) >= 0.05:
            print(f"    {name:<24} {cost:8.1f}")


if __name__ == "__main__":
    for name, (_run, _ordered, ceiling, measured, parent, _columns, _slab) in BUDGETS.items():
        quotient = bytes_per_command(name)
        print(f"{name}: {quotient['total']:.1f} bytes retained per ordered command "
              f"(ceiling {ceiling:.0f}, measured {measured:.1f}, "
              f"before slotted commands {parent:.1f})")
        print_top(quotient, "by layer", len(quotient))
        print_top(bytes_per_command(name, retained_by_type), "by type, shallow", 12)
    short, long = cursor_retained(10_000), cursor_retained(40_000)
    print(f"merge cursor: {short} bytes kept after 10k instances per ring, {long} after 40k "
          f"(slack {CURSOR_SLACK_BYTES})")
