"""State-machine replication on top of atomic multicast.

Both services of the paper (MRP-Store and dLog) replicate their partitions
with the state-machine approach: every replica of a partition delivers the
same sequence of commands — provided by Multi-Ring Paxos — and applies them
deterministically, so all replicas traverse the same states (Section 6).

:class:`StateMachineReplica` implements everything that is common:

* executing delivered commands (service subclasses implement
  :meth:`apply_command`),
* answering clients (first response wins at the client; multi-partition
  commands are answered per partition),
* periodic checkpointing through :class:`~repro.recovery.checkpointing.ReplicaCheckpointer`,
* serving checkpoint requests from recovering peers,
* recovering after a crash through :class:`~repro.recovery.recover.RecoveryManager`.

:class:`ProposerFrontend` is the thin process clients talk to: it receives
client requests (possibly batched) and multicasts them to the requested
group.

:class:`ReactiveReplicaHost` is the service half of the sharded engine's
streaming merge stage: it hosts a *real* replica in the parent process and,
as the engine's ``segment_sink``, applies every barrier's merged cross-ring
deliveries to it, so clients can read merged shared-learner state — with
latency accounting — while the shards are still running.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.message import ClientRequest, ClientResponse
from ..paxos.messages import CheckpointReply, CheckpointRequest, ProposalValue, RetransmitReply
from ..recovery.checkpointing import ReplicaCheckpointer
from ..recovery.recover import RecoveryManager, RecoveryPhase
from ..sim.actor import Environment
from ..sim.disk import SSD_PROFILE
from ..storage.checkpoint import CheckpointId, CheckpointStore
from ..multiring.merge import MergeCursor, RingSegment, replay_streams
from ..multiring.process import MultiRingProcess
from .client import Command
from .packing import PackedValues, iter_commands, iter_payloads

__all__ = [
    "StateMachineReplica",
    "ProposerFrontend",
    "ReactiveReplicaHost",
]


class StateMachineReplica(MultiRingProcess):
    """A replica executing commands delivered by Multi-Ring Paxos.

    Subclasses implement the service semantics by overriding
    :meth:`apply_command`, :meth:`snapshot_state`, :meth:`install_state_snapshot`
    and :meth:`reset_state`.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        site: str = "dc1",
        respond_to_clients: bool = True,
    ) -> None:
        super().__init__(env, name, site)
        self.respond_to_clients = respond_to_clients
        self.checkpoint_store = CheckpointStore(env, profile=SSD_PROFILE, name=f"{name}.ckpt")
        self._checkpointer: Optional[ReplicaCheckpointer] = None
        self._recovery = RecoveryManager(
            host=self,
            install_state=self._install_checkpoint,
            inject_decided=self._inject_recovered,
            on_complete=self._recovery_complete,
        )
        self._commands_applied = 0
        self._recovering = False
        #: service-plane dispatch: exact message class -> the bound method that
        #: does the work.  Anything not in the table is client traffic.
        self._service_handlers = {
            CheckpointRequest: self._serve_checkpoint_request,
            CheckpointReply: self._recovery.handle_checkpoint_reply,
            RetransmitReply: self._recovery.handle_retransmit_reply,
        }

    # ----------------------------------------------------------- service API
    def apply_command(self, group_id: int, command: Command) -> Any:
        """Execute one command against the service state (override)."""
        raise NotImplementedError

    def snapshot_state(self) -> Tuple[Any, int]:
        """Return ``(state, size_bytes)`` — a deep copy of the service state."""
        raise NotImplementedError

    def install_state_snapshot(self, state: Any) -> None:
        """Replace the service state with a downloaded snapshot."""
        raise NotImplementedError

    def reset_state(self) -> None:
        """Drop the in-memory service state (called on crash/restart)."""
        raise NotImplementedError

    # ----------------------------------------------------------------- start
    def on_start(self) -> None:
        super().on_start()
        self._ensure_checkpointer()
        self._start_checkpoint_timer()

    def _start_checkpoint_timer(self) -> None:
        config = self.config
        if config is not None and config.checkpoint_interval is not None:
            self.set_periodic_timer(config.checkpoint_interval, self._checkpoint_tick)

    def _ensure_checkpointer(self) -> None:
        groups = self.subscribed_groups()
        if not groups or self._checkpointer is not None:
            return
        self._checkpointer = ReplicaCheckpointer(
            store=self.checkpoint_store,
            snapshot_fn=self.snapshot_state,
            group_ids=groups,
            at_round_boundary=(
                (lambda: self.merger.is_round_boundary()) if self.merger else (lambda: True)
            ),
        )

    def _checkpoint_tick(self) -> None:
        if self._checkpointer is not None and not self._recovering:
            self._checkpointer.request_checkpoint()

    # -------------------------------------------------------------- delivery
    def on_deliver(self, group_id: int, instance: int, value: ProposalValue) -> None:
        payload = value.payload
        if isinstance(payload, Command):
            commands: Sequence[Command] = (payload,)
        elif isinstance(payload, PackedValues):
            # A coordinator-packed instance.  The merger normally unpacks
            # these before delivery, but paths that bypass it — recovery
            # retransmission injection, tests driving a replica directly —
            # must not silently count a whole pack as one opaque command.
            commands = []
            for leaf in iter_payloads(payload):
                if isinstance(leaf, Command):
                    commands.append(leaf)
                else:
                    self._commands_applied += 1
        else:
            # Opaque payload (e.g. the dummy service of the baseline bench).
            commands = ()
            self._commands_applied += 1
        # Apply, and answer the client with the apply result and the group.
        for command in commands:
            result = self.apply_command(group_id, command)
            self._commands_applied += 1
            if self.respond_to_clients and command.client:
                self.send(
                    command.client,
                    ClientResponse(
                        command.response_size, command.command_id, group_id, result, self.name
                    ),
                )
        checkpointer = self._checkpointer
        if checkpointer is not None:
            # ``mark_delivered``, inlined: a delivery costs a compare, and a
            # checkpoint call only while a deferred one waits for a round
            # boundary.
            delivered = checkpointer.delivered
            if instance > delivered[group_id]:
                delivered[group_id] = instance
            if checkpointer.pending_request:
                checkpointer.request_checkpoint()

    @property
    def commands_applied(self) -> int:
        """Total commands applied by this replica since it (re)started."""
        return self._commands_applied

    # ---------------------------------------------------------- trim support
    def safe_instance_for(self, group_id: int) -> int:
        if self._checkpointer is None:
            return -1
        return self._checkpointer.safe_instance(group_id)

    # ------------------------------------------------------ recovery serving
    def on_service_message(self, sender: str, message: Any) -> None:
        handler = self._service_handlers.get(message.__class__)
        if handler is not None:
            handler(sender, message)
        else:
            self.on_client_message(sender, message)

    def on_client_message(self, sender: str, message: Any) -> None:
        """Hook for service-specific client traffic (override as needed)."""

    def _serve_checkpoint_request(self, sender: str, message: CheckpointRequest) -> None:
        latest = self.checkpoint_store.latest()
        if latest is None:
            self.send(sender, CheckpointReply(replica=self.name, checkpoint_id=None))
            return
        if not message.include_state:
            self.send(
                sender,
                CheckpointReply(replica=self.name, checkpoint_id=latest.checkpoint_id),
            )
            return
        self.send(
            sender,
            CheckpointReply(
                replica=self.name,
                checkpoint_id=latest.checkpoint_id,
                state=latest.state,
                includes_state=True,
                state_size_bytes=latest.size_bytes,
            ),
        )

    # --------------------------------------------------------- crash/restart
    def on_crash(self) -> None:
        super().on_crash()
        self.reset_state()
        self._commands_applied = 0
        self._checkpointer = None
        self._recovery.stop()

    def on_restart(self) -> None:
        super().on_restart()
        self._ensure_checkpointer()
        self._start_checkpoint_timer()
        self.start_recovery()

    def start_recovery(self, partition_peers: Optional[List[str]] = None) -> None:
        """Begin the recovery protocol of Section 5.2."""
        groups = self.subscribed_groups()
        if not groups:
            return
        peers = partition_peers if partition_peers is not None else self._default_partition_peers()
        acceptors_by_group = {
            g: [a for a in self.node(g).overlay.acceptors if a != self.name]
            for g in groups
        }
        self._recovering = True
        self._recovery.start(groups, peers, acceptors_by_group)

    def _default_partition_peers(self) -> List[str]:
        """Learners of my rings having the same subscription set as me."""
        groups = set(self.subscribed_groups())
        peers: List[str] = []
        for g in groups:
            for learner in self.node(g).overlay.learners:
                if learner == self.name or learner in peers:
                    continue
                peer = self.env.actor(learner) if self.env.has_actor(learner) else None
                if isinstance(peer, MultiRingProcess) and set(peer.subscribed_groups()) == groups:
                    peers.append(learner)
        return sorted(peers)

    def _install_checkpoint(self, state: Any, checkpoint_id: CheckpointId) -> None:
        self.install_state_snapshot(state)
        positions = checkpoint_id.as_dict()
        for group, instance in positions.items():
            if group in self.ring_ids():
                node = self.node(group)
                if node.learner is not None:
                    node.learner.fast_forward(instance)
        if self.merger is not None:
            self.merger.fast_forward(positions)
        if self._checkpointer is not None:
            for group, instance in positions.items():
                if instance >= 0:
                    self._checkpointer.mark_delivered(group, instance)

    def _inject_recovered(self, group_id: int, instance: int, value: ProposalValue) -> None:
        node = self.node(group_id)
        if node.learner is not None:
            node.learner.inject_decided(instance, value)

    def _recovery_complete(self) -> None:
        self._recovering = False
        self.env.metrics.counter(f"recovery.{self.name}.completed").increment()

    @property
    def recovery_phase(self) -> RecoveryPhase:
        """Where the replica currently stands in its recovery (IDLE when none)."""
        return self._recovery.phase

    @property
    def checkpointer(self) -> Optional[ReplicaCheckpointer]:
        """The replica's checkpointer (``None`` before the first start)."""
        return self._checkpointer


class ProposerFrontend(MultiRingProcess):
    """A proposer-only process that turns client requests into multicasts.

    Clients of MRP-Store and dLog connect to proposers (Thrift in the
    prototype); the proposer multicasts the command to the ring of the
    partition it addresses, whose coordinator packs values into instances.
    """

    def on_service_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientRequest):
            return
        command = message.command
        if isinstance(command, Command):
            group_id = command.group_id
            size = command.size_bytes
            self.multicast(group_id, command, size)


class ReactiveReplicaHost:
    """Drives a real replica from the streaming merge, outside the shards.

    The reactive half of merge-stage sharding: a deployment whose rings share
    learners only runs one ring component per shard, every shard ships the
    decision-stream segments it recorded since the last barrier, and this
    host — living in the *parent* process — feeds them through a
    :class:`~repro.multiring.merge.MergeCursor` and applies each merged
    delivery to a real :class:`StateMachineReplica` (an MRP-Store or dLog
    replica) the moment it becomes final.  Clients can therefore read merged
    cross-ring state *during* a sharded run instead of waiting for an
    offline replay, and the cumulative delivery sequence is bit-identical to
    :func:`~repro.multiring.merge.replay_streams` over the concatenated
    segments (and hence to the single-process merger).

    :meth:`sink` is the ``segment_sink`` of
    :func:`~repro.sim.parallel.run_sharded`: at every barrier it takes the
    shards' ``(watermark, segments)`` payloads — the minimum watermark and
    the union of their disjoint rings, where a ring whose in-shard learner
    is down is absent and so stays uncovered — and feeds them to
    :meth:`ingest`.  A shard shipping a ring the replica does not subscribe
    to is an error (the cursor's ``KeyError`` names the ring).

    Latency accounting: every applied :class:`~repro.core.client.Command`
    records ``joint watermark − command.created_at`` — the client-visible
    freshness of the merged state at the barrier that made the command
    readable — into ``reactive.<replica>.latency`` on the replica's metric
    registry.

    Fault tolerance: a partitioned or crashed producer stops covering its
    rings (barriers arrive with ``covered`` excluding them), the joint
    watermark stalls at the last honest mark, and the host simply keeps
    ingesting — queued deliveries wait at the round-robin gate until the
    ring heals and its backlog arrives.  Each such stall is recorded as a
    closed ``(start, end)`` window (:attr:`stall_windows`, durations in
    ``reactive.<replica>.stall``), and the per-command latency accounting
    subtracts the overlap of a command's in-flight interval with the stall
    windows: the stall is an availability incident, not merge latency, and
    folding it in would drown the freshness signal the metric exists for.

    Parameters
    ----------
    replica:
        The service replica to drive.  It lives in a parent-side
        :class:`~repro.sim.actor.Environment` and never joins a ring — the
        cursor replaces its merger — and should be constructed with
        ``respond_to_clients=False`` (its clients are the parent's callers,
        not simulated actors).
    group_ids:
        The rings the replica (as the deployment's shared learner) is
        subscribed to.
    messages_per_round:
        The deterministic-merge parameter ``M``.
    retain_history:
        Keep the full applied-delivery sequence for :attr:`deliveries` and
        every shipped entry for :attr:`streams` (the differential digests and
        :meth:`offline_deliveries` need them).  Pass ``False`` when only the
        live replica state matters — the host then holds no more than one
        barrier's deliveries in memory.
    """

    def __init__(
        self,
        replica: StateMachineReplica,
        group_ids: List[int],
        messages_per_round: int = 1,
        retain_history: bool = True,
    ) -> None:
        self.replica = replica
        #: the merge parameter ``M`` (an offline replay must use the same)
        self.messages_per_round = messages_per_round
        self._latency = replica.env.metrics.latency(f"reactive.{replica.name}.latency")
        self._stall = replica.env.metrics.latency(f"reactive.{replica.name}.stall")
        self._stall_windows: List[Tuple[float, float]] = []
        self._stall_open: Optional[float] = None
        #: the joint watermark of the barrier being ingested (see :meth:`ingest`)
        self._joint: Optional[float] = None
        self._cursor = MergeCursor(
            group_ids,
            messages_per_round=messages_per_round,
            on_deliver=self._apply,
            retain_history=retain_history,
        )
        self._retain = retain_history
        #: ring id → every ``(instance, value)`` :meth:`sink` took, in arrival
        #: order (kept with ``retain_history``; the producers' buffers
        #: already dropped restart re-emissions)
        self.streams: Dict[int, List[Tuple[int, ProposalValue]]] = {}
        #: wall-clock seconds spent inside :meth:`sink`
        self.seconds = 0.0
        #: barriers fed through :meth:`ingest`
        self.barriers_ingested = 0

    # ----------------------------------------------------------------- input
    def sink(self, segments_by_shard: Dict[int, Any]) -> None:
        """Ingest one barrier's ``{shard_id: (watermark, segments)}``."""
        started = perf_counter()
        watermark: Optional[float] = None
        merged: Dict[int, RingSegment] = {}
        for shard_id in sorted(segments_by_shard):
            shard_watermark, rings = segments_by_shard[shard_id]
            if watermark is None or shard_watermark < watermark:
                watermark = shard_watermark
            merged.update(rings)
            if self._retain:
                for ring, segment in rings.items():
                    self.streams.setdefault(ring, []).extend(segment.entries)
        self.ingest(merged, watermark=watermark, covered=sorted(merged))
        self.seconds += perf_counter() - started

    def ingest(
        self,
        segments: Dict[int, Any],
        watermark: Optional[float] = None,
        covered: Optional[List[int]] = None,
    ) -> int:
        """Feed one barrier's decision-stream segments; apply what merges.

        ``segments`` maps ring ids to the entries recorded since the last
        barrier — tagged :class:`~repro.multiring.merge.RingSegment` values
        or bare ``(instance, value)`` lists; rings with nothing new may be
        absent.  ``watermark`` is the barrier time; it advances every ring in
        ``covered`` (default: all) — producers exclude rings whose streams
        are not known complete up to the barrier, e.g. because their learner
        is crashed, and the joint watermark then stalls honestly until the
        ring heals.  Every delivery the round-robin can finalise is applied
        to the replica before this returns.  Returns the number of
        deliveries applied.
        """
        # Advance the covered marks (and settle the stall bookkeeping)
        # *before* feeding entries, so deliveries applied at the healing
        # barrier already see the closed stall window.
        if watermark is not None:
            self._cursor.feed_segments({}, watermark=watermark, groups=covered)
        # Entries carry no marks, so the joint watermark (a scan over the
        # rings) is final for every delivery of this barrier.
        joint = self._joint = self._cursor.watermark
        if watermark is not None and joint is not None:
            if joint < watermark:
                if self._stall_open is None:
                    self._stall_open = joint
            elif self._stall_open is not None:
                window = (self._stall_open, joint)
                self._stall_windows.append(window)
                self._stall.record(window[1] - window[0])
                self._stall_open = None
        applied = len(self._cursor.feed_segments(segments))
        self.barriers_ingested += 1
        return applied

    def _apply(self, group_id: int, instance: int, value: ProposalValue) -> None:
        self.replica.on_deliver(group_id, instance, value)
        watermark = self._joint
        if watermark is None:
            return
        payload = value.payload
        if payload.__class__ is Command:
            commands = (payload,)
        else:
            # The shared recursive unpacker opens both batching layers
            # (packed instances and command batches), so each inner command's
            # own ``created_at`` drives its latency sample even after packing.
            commands = iter_commands(payload)
        for command in commands:
            latency = watermark - command.created_at
            if self._stall_windows:
                # A stall is an availability incident, not merge latency:
                # subtract the in-flight interval's overlap with every
                # closed stall window.
                for start, end in self._stall_windows:
                    overlap = min(watermark, end) - max(command.created_at, start)
                    if overlap > 0.0:
                        latency -= overlap
            self._latency.record(max(0.0, latency))

    # ------------------------------------------------------------ inspection
    @property
    def groups(self) -> List[int]:
        """Rings feeding this replica's merge, in merge order."""
        return self._cursor.groups

    @property
    def watermark(self) -> Optional[float]:
        """Simulated time up to which the merged state is complete."""
        return self._cursor.watermark

    @property
    def deliveries(self) -> List[Tuple[int, int, ProposalValue]]:
        """Every merged delivery applied so far, in merge order.

        Only complete with ``retain_history=True`` (the default).
        """
        return self._cursor.merged

    def offline_deliveries(self) -> List[Tuple[int, int, ProposalValue]]:
        """The offline replay of :attr:`streams`, one chunk per ring.

        The anchor the barrier-by-barrier :attr:`deliveries` must equal
        (needs ``retain_history``).
        """
        return replay_streams(
            {ring: self.streams.get(ring, []) for ring in self.groups},
            messages_per_round=self.messages_per_round,
        )

    @property
    def commands_applied(self) -> int:
        """Commands the hosted replica executed."""
        return self.replica.commands_applied

    @property
    def stall_windows(self) -> List[Tuple[float, float]]:
        """Closed ``(start, end)`` watermark-stall windows, in order."""
        return list(self._stall_windows)

    def latency_stats(self) -> Dict[str, float]:
        """Client-visible merge latency summary, in milliseconds.

        Stall windows are excluded from the per-command latencies (see the
        class docstring) and summarised separately by the two stall keys.
        """
        recorder = self._latency
        return {
            "count": float(recorder.count),
            "mean_ms": recorder.mean() * 1e3,
            "p95_ms": recorder.percentile(95) * 1e3,
            "p99_ms": recorder.percentile(99) * 1e3,
            "stall_count": float(len(self._stall_windows)),
            "stalled_ms": sum(e - s for s, e in self._stall_windows) * 1e3,
        }
