"""Functions of ``src/repro`` that no runner calls, each with its reason.

``python -m tests.tools.census`` fails on an unreached function missing from
this table, on an entry whose function is reached or gone, and on a reason
outside :data:`tests.tools.census.REASONS` / ``future: item N``.  Keep the
entries grouped by reason; the comment above a group says what calls them.
"""

ALLOWLIST = {
    # fault-path: runs only on a failure no runner injects.
    # A violated invariant: the oracle's message and the repro artifact.
    "repro.chaos.oracle.Violation.__str__": "fault-path",
    "repro.chaos.scenario._dump_artifact": "fault-path",
    # A worker process that died.
    "repro.sim.parallel._Pipes._raise_dead": "fault-path",
    # A segment entry out of order; a pack nested in a pack (a re-proposed
    # repaired instance).
    "repro.multiring.merge._iter_leaf_values": "fault-path",
    # A bounded retransmission request (gap repair below the decided tail).
    "repro.paxos.acceptor.AcceptorState.decided_between": "fault-path",
    # Phase 1 over instances an acceptor already voted in (coordinator takeover).
    "repro.paxos.instance.AcceptorInstance.receive_phase1a": "fault-path",
    # A crash while log writes are still in flight.
    "repro.storage.slab.InstanceSlab.detach": "fault-path",

    # size-triggered: runs only past a size the runners stay below.
    # More cancelled timers than half the event heap.
    "repro.sim.kernel.Simulator._compact": "size-triggered",
    # A latency recorder past its sketch threshold folds into log buckets.
    "repro.sim.metrics.LatencyRecorder._fold_into_sketch": "size-triggered",
    "repro.sim.metrics.LatencyRecorder._bucket_index": "size-triggered",
    "repro.sim.metrics.LatencyRecorder._bucket_value": "size-triggered",
    "repro.sim.metrics.LatencyRecorder._clamped": "size-triggered",
    "repro.sim.metrics.LatencyRecorder._sketch_percentile": "size-triggered",

    # test-reference: a differential test's reference or anchor calls it.
    # The acceptor differential (tests/paxos/test_acceptor_fastpath.py against
    # tests/reference/acceptor.py) observes the shipped acceptor and its log
    # through these.  Item 11 decides them.
    "repro.paxos.acceptor.AcceptorState.promised_ballot": "test-reference",
    "repro.paxos.instance.AcceptorInstance.has_accepted": "test-reference",
    "repro.storage.wal.WriteAheadLog.__contains__": "test-reference",
    "repro.storage.wal.WriteAheadLog.__len__": "test-reference",
    # The learner differential (tests/ringpaxos/test_learner_fastpath.py
    # against tests/reference/learner.py) drives and observes through these.
    "repro.ringpaxos.learner.RingLearner.supply_missing_value": "test-reference",
    "repro.ringpaxos.learner.RingLearner.is_decided": "test-reference",
    "repro.ringpaxos.learner.RingLearner.gaps": "test-reference",
    # The dispatch differential's _ReferenceDispatchProcess
    # (tests/ringpaxos/test_dispatch_differential.py) dispatches through these.
    "repro.ringpaxos.node.RingNode.handle": "test-reference",
    "repro.ringpaxos.node.RingNode._resolve_handler": "test-reference",
    # The swarm differential (tests/core/test_swarm_differential.py)
    # inspects the wheel.
    "repro.core.swarm.ClientSwarm._wheel": "test-reference",

    # interface: a base-class method every runner's subclass overrides.
    "repro.sim.actor.Actor.on_message": "interface",
    "repro.sim.actor.Actor.on_restart": "interface",
    "repro.sim.parallel.ShardHarness.finalize": "interface",
    "repro.kvstore.partitioning.Partitioner.group_for_key": "interface",
    "repro.kvstore.partitioning.Partitioner.groups_for_range": "interface",
    "repro.multiring.process.MultiRingProcess.on_service_message": "interface",
    "repro.multiring.process.MultiRingProcess.safe_instance_for": "interface",
    "repro.core.smr.StateMachineReplica.apply_command": "interface",
    "repro.core.smr.StateMachineReplica.snapshot_state": "interface",
    "repro.core.smr.StateMachineReplica.install_state_snapshot": "interface",
    "repro.core.smr.StateMachineReplica.reset_state": "interface",
    "repro.core.smr.StateMachineReplica.on_client_message": "interface",

    # The kernel's stepped path (``run(max_events=...)``), which item 15(b)'s
    # ``--step`` replay drives.
    "repro.sim.kernel.Simulator.step": "future: item 15(b)",
    "repro.sim.kernel.Simulator._run_stepped": "future: item 15(b)",
}
