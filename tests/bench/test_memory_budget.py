"""Exact-ish guard on what a run *keeps*: retained bytes per ordered command.

Peak RSS is noise on a shared runner and includes the interpreter; the bytes
``tracemalloc`` still sees allocated after a deterministic run are neither.
The pinned Figure 3 point runs for 0.1 and for 0.2 simulated seconds, the
finished deployment is held, and the **difference quotient** — extra retained
bytes over extra ordered commands — cancels the interpreter baseline and every
fixed set-up cost, leaving what one more command costs for the rest of the
run: the acceptors' per-instance state (``repro.storage.slab``), the learners'
out-of-order window, the instruments' columns.  Each mode is held to a ceiling
a few percent above what the code measured when the ceiling was set; the
number before the columnar slab is recorded beside it.

The second test is the slab's point stated directly: a finished unbatched
deployment holds no per-instance ``AcceptorInstance`` / ``LogRecord`` /
``SlotEntry`` object at all.

    PYTHONPATH=src python tests/bench/test_memory_budget.py    # prints both numbers
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import List, Tuple

import pytest

from repro.bench.fig3_baseline import run_fig3_point
from repro.core.amcast import AtomicMulticast
from repro.core.packing import iter_values
from repro.paxos.instance import AcceptorInstance
from repro.sim.disk import StorageMode
from repro.storage.slab import LogRecord, SlotEntry

#: ``name -> (runner arguments, ceiling, measured, bytes per command before the slab)``
BUDGETS = {
    "unbatched": (dict(threads_per_proposer=10, batching_enabled=False), 336.0, 325.9, 1289.1),
    "batched": (dict(threads_per_proposer=40, batching_enabled=True), 282.0, 274.0, 354.1),
}


def finished_deployment(duration: float, **runner_arguments) -> AtomicMulticast:
    """The deployment of one pinned fig3 run, after the run."""
    deployments: List[AtomicMulticast] = []
    start = AtomicMulticast.start

    def capture(self, *args, **kwargs):
        deployments.append(self)
        return start(self, *args, **kwargs)

    AtomicMulticast.start = capture
    try:
        run_fig3_point(
            2048, StorageMode.IN_MEMORY, warmup=0.02, duration=duration, seed=42,
            **runner_arguments,
        )
    finally:
        AtomicMulticast.start = start
    (deployment,) = deployments
    return deployment


def ordered_commands(deployment: AtomicMulticast) -> int:
    """Application values the ring ordered (packed instances opened)."""
    coordinator = deployment.process(deployment.ring(0).coordinator)
    decided = coordinator.node(0).acceptor.decided_from(0)
    return sum(1 for _instance, value in decided for _leaf in iter_values(value))


def retained(duration: float, **runner_arguments) -> Tuple[int, int]:
    """``(bytes still allocated, commands ordered)`` after one pinned run."""
    gc.collect()
    tracemalloc.start()
    try:
        deployment = finished_deployment(duration, **runner_arguments)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, ordered_commands(deployment)


def bytes_per_command(**runner_arguments) -> float:
    short_bytes, short_commands = retained(0.1, **runner_arguments)
    long_bytes, long_commands = retained(0.2, **runner_arguments)
    return (long_bytes - short_bytes) / (long_commands - short_commands)


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_retained_bytes_per_ordered_command_stay_under_the_ceiling(name):
    arguments, ceiling, measured, _before = BUDGETS[name]
    cost = bytes_per_command(**arguments)
    assert cost <= ceiling, (
        f"{name}: {cost:.0f} bytes retained per ordered command, ceiling {ceiling:.0f} "
        f"(measured {measured:.0f} when it was set): something keeps an object per instance"
    )
    if name == "unbatched":
        assert cost <= _before / 2  # what the slab was accepted on


def per_instance_objects() -> int:
    gc.collect()
    return sum(type(o) in (AcceptorInstance, LogRecord, SlotEntry) for o in gc.get_objects())


def test_finished_deployment_holds_no_per_instance_object():
    before = per_instance_objects()  # whatever other tests still hold
    deployment = finished_deployment(0.1, **BUDGETS["unbatched"][0])
    assert ordered_commands(deployment) > 10_000
    assert per_instance_objects() <= before


if __name__ == "__main__":
    for name, (arguments, ceiling, measured, before) in BUDGETS.items():
        print(f"{name}: {bytes_per_command(**arguments):.1f} bytes retained per ordered command "
              f"(ceiling {ceiling:.0f}, measured {measured:.1f}, before the slab {before:.1f})")
