"""Dispatch-table exhaustiveness differential.

``RingNode.handle`` used to select handlers with a long isinstance chain;
it now uses a precomputed ``type(message) -> bound method`` table (with an
MRO-walking fallback for subclasses).  These tests keep the old chain alive
as a behavioural oracle: one instance of every registered message class is
fed through both selectors on identically prepared twin rings, and handler
selection and return values must match — including the unknown-message
fallthrough and the subclass path the MRO fallback serves.

The service plane (``StateMachineReplica.on_service_message``) got the same
treatment and is differenced against its old chain below.
"""

from __future__ import annotations

from typing import Optional

from repro.core.amcast import AtomicMulticast
from repro.core.smr import StateMachineReplica
from repro.multiring.process import MultiRingProcess
from repro.paxos.messages import (
    CheckpointReply,
    CheckpointRequest,
    Decision,
    Phase1A,
    Phase1B,
    Phase2Ring,
    ProposalValue,
    RetransmitRequest,
    RetransmitReply,
    TrimCommand,
    TrimQuery,
    TrimReport,
)
from repro.sim.topology import single_datacenter


def _value(payload="cmd", size=64, proposer="p0", pid=7):
    return ProposalValue(payload=payload, size_bytes=size, proposer=proposer, proposal_id=pid)


#: One representative instance per registered message class.  Instance
#: numbers sit far above anything the warm-up run decides so the handlers
#: exercise their real code paths without colliding with live state.
MESSAGE_FACTORIES = {
    Phase2Ring: lambda: Phase2Ring(
        ring_id=0, instance=990_001, ballot=1, value=_value(), votes=("p9",), origin="p9"
    ),
    Decision: lambda: Decision(
        ring_id=0, instance=990_002, value=_value(), origin="p9", carries_value=True
    ),
    Phase1A: lambda: Phase1A(ring_id=0, ballot=0, from_instance=0, to_instance=10),
    Phase1B: lambda: Phase1B(ring_id=0, ballot=1, from_instance=0, to_instance=10),
    RetransmitRequest: lambda: RetransmitRequest(
        ring_id=0, from_instance=0, to_instance=2, requester="p0"
    ),
    RetransmitReply: lambda: RetransmitReply(ring_id=0, decided=[], reason="recovery"),
    TrimQuery: lambda: TrimQuery(ring_id=0),
    TrimReport: lambda: TrimReport(ring_id=0, replica="p9", safe_instance=-1),
    TrimCommand: lambda: TrimCommand(ring_id=0, up_to_instance=-1),
}

#: The pre-table isinstance chain, in its original order.  ``ValueForward``
#: is registered in ``RingNode.HANDLERS`` too but needs a proposer-side
#: pending entry to do anything; selection is still differenced via the
#: table below.
_ORACLE_CHAIN = (
    (Phase2Ring, "_handle_phase2"),
    (Decision, "_handle_decision"),
    (Phase1A, "_handle_phase1a"),
    (Phase1B, "_handle_phase1b"),
    (RetransmitRequest, "_handle_retransmit_request"),
    (RetransmitReply, "_handle_retransmit_reply"),
    (TrimReport, "_handle_trim_report"),
    (TrimCommand, "_handle_trim_command"),
)


def _oracle_select(message) -> Optional[str]:
    for cls, name in _ORACLE_CHAIN:
        if isinstance(message, cls):
            return name
    return None


def _oracle_handle(node, sender: str, message) -> bool:
    """The old ``RingNode.handle``: CPU charge, isinstance chain, False fallthrough.

    ``TrimQuery`` was intercepted by the hosting process before the old
    chain ran, so the chain itself treated it as unknown (``False``).
    """
    node.host.cpu.charge_message(node._cpu_model, getattr(message, "size_bytes", 0))
    name = _oracle_select(message)
    if name is None:
        return False
    return getattr(node, name)(sender, message)


def _table_select(node, message) -> Optional[str]:
    handler = node._handlers.get(message.__class__)
    if handler is None:
        handler = node._resolve_handler(message.__class__)
    return None if handler is None else handler.__name__


def _build_ring(seed=7):
    system = AtomicMulticast(topology=single_datacenter(), seed=seed)
    procs = [MultiRingProcess(system.env, f"p{i}") for i in range(3)]
    system.create_ring(0, [(p.name, "pal") for p in procs])
    system.start()
    system.run(until=0.05)
    coordinator = system.ring(0).coordinator
    follower = next(p for p in procs if p.name != coordinator)
    return system, follower.node(0)


class TestRingNodeDispatchDifferential:
    def test_every_registered_class_selects_like_the_old_chain(self):
        _, node = _build_ring()
        for cls in MESSAGE_FACTORIES:
            message = MESSAGE_FACTORIES[cls]()
            oracle = _oracle_select(message)
            table = _table_select(node, message)
            if cls is TrimQuery:
                # The old chain never saw TrimQuery (the hosting process
                # answered it first); the table carries an explicit no-op
                # entry so unknown-class resolution stays a cold path.
                assert table == "_handle_trim_query"
            else:
                assert table == oracle, f"{cls.__name__}: table {table} != chain {oracle}"

    def test_table_registers_every_message_class(self):
        from repro.ringpaxos.node import RingNode

        registered = set(RingNode.HANDLERS)
        assert set(MESSAGE_FACTORIES).issubset(registered)

    def test_return_values_match_the_old_chain(self):
        # Twin rings prepared identically (same seed): feeding the same
        # message to the shipped dispatcher on one and the old chain on the
        # other must produce the same return value for every class.
        for cls, factory in MESSAGE_FACTORIES.items():
            _, table_node = _build_ring()
            _, oracle_node = _build_ring()
            sender = "p0"
            assert table_node.handle(sender, factory()) == _oracle_handle(
                oracle_node, sender, factory()
            ), f"return value diverged for {cls.__name__}"

    def test_subclass_resolves_through_mro_fallback(self):
        class TracingDecision(Decision):
            """A subclass absent from HANDLERS: resolved via the MRO walk."""

        _, node = _build_ring()
        message = TracingDecision(
            ring_id=0, instance=990_050, value=_value(), origin="p9", carries_value=True
        )
        assert _table_select(node, message) == _oracle_select(message) == "_handle_decision"
        assert node.handle("p0", message) is True
        # The resolution is cached: the subclass now hits the table directly.
        assert node._handlers[TracingDecision].__name__ == "_handle_decision"

    def test_unknown_message_falls_through_exactly_like_the_old_chain(self):
        class Mystery:
            ring_id = 0
            size_bytes = 10

        _, table_node = _build_ring()
        _, oracle_node = _build_ring()
        assert _table_select(table_node, Mystery()) is None
        assert table_node.handle("p0", Mystery()) is False
        assert _oracle_handle(oracle_node, "p0", Mystery()) is False

    def test_unknown_ring_message_reaches_service_layer(self):
        class Mystery:
            ring_id = 0
            size_bytes = 10

        system, node = _build_ring()
        host = node.host
        seen = []
        host.on_service_message = lambda sender, message: seen.append((sender, message))
        mystery = Mystery()
        host.on_message("p9", mystery)
        assert seen == [("p9", mystery)]


class TestServiceDispatchDifferential:
    @staticmethod
    def _oracle_service_select(message) -> Optional[str]:
        # The old StateMachineReplica.on_service_message chain.
        if isinstance(message, CheckpointRequest):
            return "_handle_checkpoint_request"
        if isinstance(message, CheckpointReply):
            return "_handle_checkpoint_reply"
        if isinstance(message, RetransmitReply):
            return "_handle_retransmit_reply"
        return None

    def test_selection_matches_old_chain(self):
        system = AtomicMulticast(topology=single_datacenter(), seed=3)
        replica = StateMachineReplica(system.env, "r0")
        cases = [
            CheckpointRequest(requester="r1"),
            CheckpointReply(replica="r1"),
            RetransmitReply(ring_id=0),
            TrimQuery(ring_id=0),  # not service-plane: falls to client traffic
        ]
        for message in cases:
            oracle = self._oracle_service_select(message)
            handler = replica._service_handlers.get(message.__class__)
            table = None if handler is None else handler.__name__
            assert table == oracle, f"{type(message).__name__}: {table} != {oracle}"

    def test_unregistered_message_reaches_client_hook(self):
        system = AtomicMulticast(topology=single_datacenter(), seed=3)
        replica = StateMachineReplica(system.env, "r0")
        seen = []
        replica.on_client_message = lambda sender, message: seen.append(message)
        payload = object()
        replica.on_service_message("c1", payload)
        assert seen == [payload]


class _ReferenceDispatchProcess(MultiRingProcess):
    """``on_message`` as it was before the hop fast path: the TrimQuery check
    first, ``CpuAccount.charge_message`` as a call before the handler."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.delivered = []

    def on_deliver(self, group_id, instance, value):
        self.delivered.append((group_id, instance, value.payload))

    def on_message(self, sender, message):
        ring_id = getattr(message, "ring_id", None)
        if ring_id is not None:
            node = self._nodes.get(ring_id)
            if node is not None:
                if isinstance(message, TrimQuery):
                    self._answer_trim_query(sender, message)
                    return
                handler = node._handlers.get(message.__class__)
                if handler is not None:
                    self.cpu.charge_message(node._cpu_model, message.size_bytes)
                    if handler(sender, message):
                        return
                elif node.handle(sender, message):
                    return
        self.on_service_message(sender, message)


class _ShippedDispatchProcess(_ReferenceDispatchProcess):
    on_message = MultiRingProcess.on_message


class TestProcessDispatchAccounting:
    """The inlined CPU charge and the off-path TrimQuery answer change nothing."""

    @staticmethod
    def _run(process_cls, seed=5):
        from repro.core.config import MultiRingConfig

        config = MultiRingConfig(
            rate_interval=0.002, max_rate=400.0, checkpoint_interval=None, trim_interval=0.004
        )
        system = AtomicMulticast(topology=single_datacenter(), config=config, seed=seed)
        procs = [process_cls(system.env, f"p{i}") for i in range(4)]
        system.create_ring(0, [(p.name, "pal") for p in procs[:3]] + [(procs[3].name, "l")])
        system.start()
        for burst in range(5):
            for i, proc in enumerate(procs[:3]):
                proc.multicast(0, f"c{burst}.{i}", 100 + 40 * i)
            system.run(until=0.01 * (burst + 1))
        return system, procs

    def test_cpu_seconds_events_and_deliveries_are_identical(self):
        shipped_system, shipped = self._run(_ShippedDispatchProcess)
        reference_system, reference = self._run(_ReferenceDispatchProcess)
        assert shipped[3].delivered and shipped[0].cpu._window_busy > 0.0
        assert [p.cpu._window_busy for p in shipped] == [p.cpu._window_busy for p in reference]
        assert [p.cpu.utilization() for p in shipped] == [p.cpu.utilization() for p in reference]
        assert [p.delivered for p in shipped] == [p.delivered for p in reference]
        assert (
            shipped_system.env.simulator.processed_events
            == reference_system.env.simulator.processed_events
        )

    def test_trim_query_is_answered_and_never_charged(self):
        class TracingTrimQuery(TrimQuery):
            """A subclass absent from the table: the cold branch answers it."""

        for query_cls in (TrimQuery, TracingTrimQuery):
            system, procs = self._run(_ShippedDispatchProcess)
            learner, coordinator = procs[3], system.ring(0).coordinator
            sent = []
            learner.send = lambda dest, message: sent.append((dest, message))
            learner.on_service_message = lambda sender, message: sent.append(("service", message))
            before = learner.cpu._window_busy
            learner.on_message(coordinator, query_cls(ring_id=0))
            assert learner.cpu._window_busy == before
            assert [(dest, type(m)) for dest, m in sent] == [(coordinator, TrimReport)]

    def test_unconsumed_ring_message_is_charged_then_reaches_the_service_layer(self):
        system, procs = self._run(_ShippedDispatchProcess)
        learner = procs[3]
        seen = []
        learner.on_service_message = lambda sender, message: seen.append(message)
        reply = RetransmitReply(ring_id=0, decided=[], reason="recovery")
        before = learner.cpu._window_busy
        learner.on_message("p0", reply)
        model = learner.node(0)._cpu_model
        assert learner.cpu._window_busy == before + (
            model.per_message * 1 + model.per_byte * reply.size_bytes
        )
        assert seen == [reply]
