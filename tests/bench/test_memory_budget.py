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
columns, the swarm's wheel.  Each run is held to a ceiling a few percent above
what the code measured when the ceiling was set; the numbers before
run-length throughput columns (one sample per simulated instant, constant
proposer payloads, the swarm's re-arm FIFO) and before the columnar slab are
recorded beside it.

The second test is the slab's point stated directly: a finished unbatched
deployment holds no per-instance ``AcceptorInstance`` / ``LogRecord`` /
``SlotEntry`` object at all.

Run as a script, it also prints each quotient by layer — the top-level
``repro`` subpackage of the file that allocated the bytes — so a regression
names the layer that keeps the object:

    PYTHONPATH=src python tests/bench/test_memory_budget.py
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.bench.fig3_baseline import run_fig3_point
from repro.bench.fig4_ycsb import run_fig4_point
from repro.core.amcast import AtomicMulticast
from repro.core.packing import iter_values
from repro.core.swarm import ClientSwarm
from repro.paxos.instance import AcceptorInstance
from repro.sim.disk import StorageMode
from repro.storage.slab import LogRecord, SlotEntry
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
        simulated_users=100_000, client_mode="open", arrival=constant(24_000.0),
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
#: before run-length throughput columns, before the columnar slab)``
BUDGETS = {
    "unbatched": (
        fig3(threads_per_proposer=10, batching_enabled=False), ring_ordered,
        280.0, 271.4, 325.9, 1289.1,
    ),
    "batched": (
        fig3(threads_per_proposer=40, batching_enabled=True), ring_ordered,
        177.0, 171.9, 274.0, 354.1,
    ),
    "kv-global-open": (kv_global_open, swarm_completed, 685.0, 664.7, 825.6, None),
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


def bytes_per_command(name: str) -> Dict[str, float]:
    """Extra retained bytes per extra ordered command, by layer and in all."""
    run, ordered = BUDGETS[name][:2]
    short_bytes, short_commands = retained(run, ordered, 0.1)
    long_bytes, long_commands = retained(run, ordered, 0.2)
    extra = long_commands - short_commands
    quotient = {
        layer: (long_bytes.get(layer, 0) - short_bytes.get(layer, 0)) / extra
        for layer in sorted(set(short_bytes) | set(long_bytes))
    }
    quotient["total"] = (sum(long_bytes.values()) - sum(short_bytes.values())) / extra
    return quotient


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_retained_bytes_per_ordered_command_stay_under_the_ceiling(name):
    _run, _ordered, ceiling, measured, _parent, before_slab = BUDGETS[name]
    cost = bytes_per_command(name)["total"]
    assert cost <= ceiling, (
        f"{name}: {cost:.0f} bytes retained per ordered command, ceiling {ceiling:.0f} "
        f"(measured {measured:.0f} when it was set): something keeps an object per command"
    )
    if name == "unbatched":
        assert cost <= before_slab / 2  # what the slab was accepted on


def per_instance_objects() -> int:
    gc.collect()
    return sum(type(o) in (AcceptorInstance, LogRecord, SlotEntry) for o in gc.get_objects())


def test_finished_deployment_holds_no_per_instance_object():
    before = per_instance_objects()  # whatever other tests still hold
    deployment = finished_deployment(BUDGETS["unbatched"][0], 0.1)
    assert ring_ordered(deployment) > 10_000
    assert per_instance_objects() <= before


if __name__ == "__main__":
    for name, (_run, _ordered, ceiling, measured, parent, _before_slab) in BUDGETS.items():
        quotient = bytes_per_command(name)
        print(f"{name}: {quotient.pop('total'):.1f} bytes retained per ordered command "
              f"(ceiling {ceiling:.0f}, measured {measured:.1f}, "
              f"before run-length columns {parent:.1f})")
        for layer, cost in sorted(quotient.items(), key=lambda item: -abs(item[1])):
            if abs(cost) >= 0.05:
                print(f"    {layer:<18} {cost:8.1f}")
