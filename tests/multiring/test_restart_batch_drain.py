"""A learner restarted mid-stream in a batching deployment re-learns the ring.

``MultiRingProcess.on_restart`` rebuilds every ring learner.  (It used to drop
the learner's ``batch_drain`` option; the learner has one drain now —
``tests/ringpaxos/test_learner_fastpath.py`` — so what is left to hold is the
delivery order across the restart.)
"""

from repro.core import AtomicMulticast, MultiRingConfig

from tests.conftest import RecordingProcess


def test_restarted_learner_keeps_batch_drain_and_delivery_order():
    config = MultiRingConfig(
        rate_interval=None, checkpoint_interval=None, trim_interval=None,
        batching_enabled=True, gap_repair_interval=0.05,
    )
    system = AtomicMulticast(seed=3, config=config)
    members = [RecordingProcess(system.env, f"n{i}") for i in range(3)]
    late = RecordingProcess(system.env, "late")
    system.create_ring(0, [(p.name, "pal") for p in members] + [(late.name, "l")])
    system.start()
    first_learner = late.node(0).learner

    sim = system.env.simulator
    for i in range(200):
        sim.call_later(
            0.0005 * i,
            lambda i=i: members[i % 3].multicast(0, payload=f"m{i}", size_bytes=4096),
        )
    before_crash = []

    def crash():
        before_crash.append(len(late.delivered))
        system.crash_process("late")

    sim.call_later(0.03, crash)
    sim.call_later(0.05, lambda: system.restart_process("late"))
    system.run(until=2.0)

    assert late.node(0).learner is not first_learner
    # Batches actually formed, and the crash landed mid-stream.
    assert members[0].node(0).coordinator.ledger.next_instance < 200
    assert 0 < before_crash[0] < 200
    # The restarted learner re-learns the ring from instance 0 (gap repair):
    # what it delivers after the restart is the other learners' sequence.
    assert members[0].delivered == members[1].delivered == members[2].delivered
    assert len(members[0].delivered) == 200
    assert late.delivered[before_crash[0]:] == members[0].delivered
