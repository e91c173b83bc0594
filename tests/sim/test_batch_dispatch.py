"""Kernel same-actor batch dispatch and learner batch drain: differentials.

The event-run dispatch (``Simulator(batch_dispatch=True)`` drains consecutive
heap entries destined for one actor in a single pass) and the learner-side
batch drain are pure mechanical optimisations: every differential here pins
the executed sequence, clock and protocol-level deliveries to the default
paths — and, with batching off, to the frozen seed substrate.
"""

import random

import pytest

import repro.core.amcast as amcast
import repro.sim.actor as actor_mod
from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
from repro.paxos.messages import SKIP, ProposalValue
from repro.ringpaxos.learner import RingLearner
from repro.sim.disk import StorageMode
from repro.sim.kernel import Simulator
from repro.sim.legacy import LegacyNetwork, LegacySimulator
from tests.reference.learner import ReferenceLearner


def _post_heavy_trace(sim, seed: int, operations: int = 300):
    """A workload dominated by ``_post`` entries sharing one callback.

    Mimics the network's delivery pattern — one bound callback, the
    destination identified by the first argument — which is exactly the shape
    the batch dispatcher groups.  Interleaves plain scheduled events and
    posts to different targets so the group-breaking conditions are hit too.
    """
    rng = random.Random(seed)
    log = []
    targets = ["conn-a", "conn-b", "conn-c"]

    def deliver(target, tag):
        log.append(("deliver", round(sim.now, 9), target, tag))
        if rng.random() < 0.3:
            sim._post(rng.uniform(0.0, 0.5), deliver,
                      (rng.choice(targets), f"{tag}.n"))

    def fire(tag):
        log.append(("fire", round(sim.now, 9), tag))

    for i in range(operations):
        roll = rng.random()
        if roll < 0.7:
            sim._post(rng.uniform(0.0, 2.0), deliver, (rng.choice(targets), str(i)))
        else:
            sim.schedule(rng.uniform(0.0, 2.0), fire, str(i))
    sim.run(until=5.0)
    return log


class TestBatchDispatchKernel:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_post_heavy_workload_identical_to_default(self, seed):
        default = Simulator()
        batched = Simulator(batch_dispatch=True)
        assert _post_heavy_trace(default, seed) == _post_heavy_trace(batched, seed)
        assert default.now == batched.now
        assert default.processed_events == batched.processed_events

    def test_stop_inside_a_run_halts_the_drain(self):
        sim = Simulator(batch_dispatch=True)
        fired = []

        def deliver(target, tag):
            fired.append(tag)
            if tag == "b":
                sim.stop()

        for tag in ("a", "b", "c", "d"):
            sim._post(1.0, deliver, ("conn", tag))
        sim.run(until=5.0)
        assert fired == ["a", "b"]

    def test_max_events_stays_exact(self):
        sim = Simulator(batch_dispatch=True)
        fired = []
        for tag in ("a", "b", "c"):
            sim._post(1.0, fired.append, (tag,))
        sim.run(max_events=2)
        assert fired == ["a", "b"]


class _Recorder(MultiRingProcess):
    def __init__(self, env, name):
        super().__init__(env, name)
        self.delivered = []

    def on_deliver(self, group_id, instance, value):
        self.delivered.append((group_id, instance, value.payload, round(self.now, 12)))
        if len(self.delivered) < 40:
            self.multicast(0, payload=(self.name, len(self.delivered)), size_bytes=512)


def _run_stack(seed: int, kernel_batch_dispatch: bool):
    config = MultiRingConfig(
        storage_mode=StorageMode.IN_MEMORY,
        batching_enabled=False,
        kernel_batch_dispatch=kernel_batch_dispatch,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(config=config, seed=seed)
    processes = [_Recorder(system.env, f"n{i}") for i in range(3)]
    system.create_ring(0, [(p.name, "pal") for p in processes])
    system.start()
    for p in processes:
        p.multicast(0, payload=(p.name, 0), size_bytes=512)
    system.run(until=2.0)
    return [p.delivered for p in processes]


class TestBatchDispatchStack:
    @pytest.mark.parametrize("seed", [3, 11, 99])
    def test_protocol_deliveries_identical_to_default_dispatch(self, seed):
        assert _run_stack(seed, False) == _run_stack(seed, True)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_batching_off_stays_anchored_to_seed_substrate(self, monkeypatch, seed):
        """batching=off runs (the default) remain bit-identical to the frozen
        seed kernel + network, whatever the dispatch flag."""
        fast = _run_stack(seed, False)
        monkeypatch.setattr(actor_mod, "Simulator", LegacySimulator)
        monkeypatch.setattr(amcast, "Network", LegacyNetwork)
        legacy = _run_stack(seed, False)
        assert fast == legacy
        assert all(len(d) > 0 for d in fast)


def _feed_learner(learner_cls, seed: int):
    """Feed a shuffled decision sequence; return the emission order."""
    rng = random.Random(seed)
    emitted = []
    learner = learner_cls(0, lambda ring, inst, value: emitted.append((inst, value.payload)))
    instances = list(range(60))
    rng.shuffle(instances)
    for inst in instances:
        payload = SKIP if rng.random() < 0.2 else f"v{inst}"
        learner.observe_decision(
            inst, ProposalValue(payload=payload, size_bytes=64, proposer="p0",
                                proposal_id=inst),
        )
    return emitted, learner


class TestLearnerBatchDrain:
    # The learner had two drains (per instance / per contiguous run) behind a
    # flag; it has one now, held to the plain-rules model.
    @pytest.mark.parametrize("seed", [0, 5, 21])
    def test_emission_order_identical_to_default_drain(self, seed):
        plain, plain_learner = _feed_learner(ReferenceLearner, seed)
        shipped, shipped_learner = _feed_learner(RingLearner, seed)
        assert plain == shipped
        assert len(plain) == 60
        assert plain_learner.emitted_count == shipped_learner.emitted_count
        assert plain_learner.skipped_count == shipped_learner.skipped_count
        assert plain_learner.next_to_emit == shipped_learner.next_to_emit
