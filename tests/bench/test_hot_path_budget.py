"""Exact-count guard on the ring hop path: Python frames per pinned fig3 run.

Host time is noise on a shared runner; the number of Python-level ``call``
events a deterministic run makes is not — it repeats to the digit for a given
interpreter version.  ``sys.setprofile`` counts them over a short pinned
Figure 3 point, unbatched (one consensus instance per command: the per-hop
protocol code) and batched, over a short ``kv-global-open`` call (the
ledger's MRP-Store workload: skip ranges, the merge, SMR apply, the swarm
wheel) and over a short ``dlog-sharded`` call (the ledger's dLog workload on
one worker: barrier windows, segment cuts, the parent-hosted reactive merge),
and the test holds each to a ceiling a few percent above what the
code measured when the ceiling was set.  A helper
call creeping back onto the per-message path (a property, a one-line
forwarder, a result object built to be thrown away) costs ~17 k frames per
site here and turns this red on any machine.

The same runs carry the exact perf guard: ``events_processed`` and every
simulated metric they report are compared, bit for bit, with
``tests/golden/exact.json`` (``pinned_runs``) — an extra event per command or
a moved latency turns this red with no new run.  The ``kv-global-open`` run
also pins the state it ends in: the swarm's issued / completed requests, each
replica's applied commands and a SHA-256 of each replica's sorted store, so a
change on the apply or reply path is held to what the replicas stored, not
only to latency.

The wire codec only runs between processes, so it has its own count: encoding
a barrier-shaped payload enters Python once per dataclass instance and not
at all for a tuple, list or dict.

Counts were taken on CPython 3.11.  3.12 inlines comprehensions, which only
lowers them; an interpreter that counts *more* for the same code would need
the ceilings re-read, not the code changed.

    PYTHONPATH=src python -m tests.bench.test_hot_path_budget    # prints every count
"""

from __future__ import annotations

import functools
import gc
import sys

import pytest

from repro.bench.fig3_baseline import run_fig3_point
from repro.bench.fig4_ycsb import run_fig4_point
from repro.bench.parallel import run_fig6_sharded
from repro.core.client import Command
from repro.core.swarm import ClientSwarm
from repro.kvstore.replica import MRPStoreReplica
from repro.multiring.merge import RingSegment
from repro.paxos.acceptor import AcceptorState
from repro.paxos.messages import Decision, ProposalValue
from repro.sim.disk import StorageMode
from repro.sim.kernel import Simulator
from repro.sim.network import encode_wire
from repro.sim.parallel import ShardHarness
from repro.workloads.arrival import constant
from tests import golden
from tests.conftest import mutate


def fig3(**runner_arguments):
    return lambda: run_fig3_point(
        2048, StorageMode.IN_MEMORY, warmup=0.02, duration=0.1, seed=42, **runner_arguments
    )


def kv_global_open():
    return run_fig4_point(
        "mrp-store", "A", warmup=0.02, duration=0.1, seed=42, client_engine="swarm",
        simulated_users=100_000, arrival=constant(24_000.0),
        slo={"gold": 0.020},
    )


#: Host-clock readings among ``run_fig6_sharded``'s metrics; the rest is simulated.
_HOST_CLOCK = (
    "wall_clock_s", "shard_wall_clock_s", "merge_stage_s", "merge_overlap_s",
    "merge_overlap_fraction",
)


def dlog_sharded():
    result = run_fig6_sharded(
        2, workers=1, clients_per_ring=8, warmup=0.1, duration=0.5, seed=42,
    )
    for name in _HOST_CLOCK:
        del result.metrics[name]
    return result


#: ``name -> (pinned run, ceiling, measured, count before the hop fast path)`` — for
#: ``kv-global-open`` the last column is the count before the columnar slab, for
#: ``dlog-sharded`` the count before the per-barrier merge bookkeeping.  The
#: ``kv-global-open`` and ``dlog-sharded`` ceilings were lowered from 398 000
#: (measured 385 658) and 1 068 000 (measured 1 031 964) when YCSB keys came
#: from a table and the clients resolved per-operation recorders once.  All
#: four were lowered from 1 505 000 / 640 000 / 394 000 / 1 036 000 (measured
#: 1 454 246 / 618 382 / 382 375 / 1 004 827) when the acceptor's slot buffer
#: and the learner's skip counters went.  ``kv-global-open`` and
#: ``dlog-sharded`` were lowered from 392 000 / 1 032 000 (measured 380 558 /
#: 1 001 471) when replies carried their group as a field, the replica's
#: apply path lost its ops tracker and checkpointer calls, and the swarm
#: wheel and the YCSB draw lost their per-request helpers.  ``dlog-sharded``
#: was lowered from 757 000 (measured 735 047) by the 28 frames the
#: multi-replica merge stage's per-barrier subscription filter cost, and
#: from 756 972 (measured 735 019) when front ends lost their constructor
#: and replicas their service-table comprehension (9 frames), less the
#: recovery manager each replica now builds once and its checkpoint-timer
#: helper (5 frames).
BUDGETS = {
    "unbatched": (
        fig3(threads_per_proposer=10, batching_enabled=False), 1_452_000, 1_403_068, 2_361_179,
    ),
    "batched": (
        fig3(threads_per_proposer=40, batching_enabled=True), 636_000, 614_518, 856_055,
    ),
    "kv-global-open": (kv_global_open, 280_000, 272_294, 404_550),
    "dlog-sharded": (dlog_sharded, 756_968, 735_015, 1_120_400),
}


def kv_state(env):
    """What a ``kv-global-open`` deployment ends with: requests and stores."""
    (swarm,) = [a for a in env.actors() if isinstance(a, ClientSwarm)]
    replicas = [a for a in env.actors() if isinstance(a, MRPStoreReplica)]
    return {
        "swarm_issued": swarm.issued,
        "swarm_completed": swarm.completed,
        "commands_applied": {r.name: r.commands_applied for r in replicas},
        "store_sha256": {
            r.name: golden.digest(
                sorted((key, entry.value, entry.size_bytes) for key, entry in r.store.snapshot().items())
            )
            for r in replicas
        },
    }


#: ``name -> state(env)`` read off the finished deployment of a pinned run.
END_STATE = {"kv-global-open": kv_state}


_KERNEL_RUN = Simulator.run.__code__
_RUN_TO_END = ShardHarness.run_to_end.__code__


def measure(pinned_run):
    """``(Python-level calls, exact simulated values, environment)`` of one pinned run.

    The fig3 runs report ``events_processed`` among their metrics.
    ``run_fig4_point`` does not (adding the metric moves a golden: a later
    PR), so for it the kernel is read off the first ``Simulator.run`` frame
    the profiler sees, which adds no frame to the count; from then on the
    profiler only counts.  The environment (``None`` for a sharded run) is
    read the same way off the first ``ShardHarness.run_to_end`` frame.
    """
    calls = 0
    kernel = None
    env = None

    def counting(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def finding_the_kernel(frame, event, arg):
        nonlocal calls, kernel, env
        if event == "call":
            calls += 1
            if frame.f_code is _RUN_TO_END and env is None:
                env = frame.f_locals["self"].env
            elif frame.f_code is _KERNEL_RUN:
                kernel = frame.f_locals["self"]
                sys.setprofile(counting)

    previous = sys.getprofile()
    sys.setprofile(finding_the_kernel)
    try:
        result = pinned_run()
    finally:
        sys.setprofile(previous)
    exact = {"metrics": golden.exact_metrics(result.metrics)}
    if "events_processed" not in result.metrics:
        exact["events_processed"] = kernel.processed_events
    return calls, exact, env


@functools.cache
def measured(name):
    """One run per pinned point, shared by the frame ceiling and the golden check."""
    calls, exact, env = measure(BUDGETS[name][0])
    if name in END_STATE:
        exact["end_state"] = END_STATE[name](env)
    return calls, exact


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_python_frames_per_pinned_run_stay_under_the_ceiling(name):
    _run, ceiling, measured_then, _before = BUDGETS[name]
    calls, _exact = measured(name)
    assert calls <= ceiling, (
        f"{name}: {calls} Python frames, ceiling {ceiling} (measured {measured_then} when it "
        "was set): something put a call back on the per-message path"
    )


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_pinned_runs_reproduce_the_golden_values(name):
    _calls, exact = measured(name)
    assert exact == golden.load()["pinned_runs"][name], (
        f"{name}: a simulated value moved — say which modelled behaviour changed, then "
        "`python -m tests.golden.repin`"
    )


def test_mutant_extra_event_per_vote_moves_events_processed(monkeypatch):
    """One more zero-delay post per acceptor vote: same order, more kernel events."""
    monkeypatch.setattr(AcceptorState, "receive_phase2", mutate(
        AcceptorState.receive_phase2,
        ("    return result\n", "    self.env.simulator._post(0.0, int)\n    return result\n"),
    ))
    events = BUDGETS["batched"][0]().metrics["events_processed"]
    pinned = golden.load()["pinned_runs"]["batched"]["metrics"]["events_processed"]
    assert events > float.fromhex(pinned)


def _barrier_payload(entries):
    """An ``("out", ...)`` worker reply: cross-shard messages and one segment."""
    def value(i):
        return ProposalValue(Command(op="append", args=(i, 1024), command_id=i), 1024, "p", i, 0.5)

    outbound = [(0.25 * i, "a", "b", Decision(ring_id=0, instance=i, value=value(i))) for i in range(entries)]
    segment = RingSegment(0, [(i, value(i)) for i in range(entries)])
    return ("out", {1: outbound}, {0: entries}, {0: 1.5}, {0: (1.0, {0: segment})})


def _frames_to_encode(payload):
    calls = 0

    def counting(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()  # a collection would run whatever sits in gc.callbacks (hypothesis's)
    previous = sys.getprofile()
    sys.setprofile(counting)
    try:
        encode_wire(payload)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def test_encoding_enters_python_once_per_registered_instance():
    # Per entry: a Decision, two ProposalValues and two Commands — and three
    # tuples plus one list slot that must cost nothing.  The difference of two
    # sizes cancels the per-frame work (the segment's own ``__reduce__``).
    small, large = _barrier_payload(100), _barrier_payload(300)
    encode_wire(small)  # the first frame of a process compiles the reducers
    assert _frames_to_encode(large) - _frames_to_encode(small) == 200 * 5


if __name__ == "__main__":
    for name, (_run, ceiling, measured_then, before) in BUDGETS.items():
        print(f"{name}: {measured(name)[0]} frames "
              f"(ceiling {ceiling}, measured {measured_then}, before {before})")
