"""The acceptor as three dicts: ``rnd / v_rnd / v_val`` per instance, a log
and a decision map.

This is what ``AcceptorState`` + ``WriteAheadLog`` stored before the columnar :class:`~repro.storage.slab.InstanceSlab`; it owns all of
its state and shares only the device model, the message types and the plain
per-instance rules (:class:`~repro.paxos.instance.AcceptorInstance`) with the
shipped code.
"""

from __future__ import annotations

from typing import Dict, List

from repro.paxos.instance import Accepted, AcceptorInstance
from repro.paxos.messages import SKIP
from repro.sim.disk import Disk, StorageMode, profile_for_mode
from repro.storage.slab import LogRecord

RECORD_OVERHEAD = 64


class ReferenceLog:
    """``instance -> LogRecord`` plus the async flush buffer."""

    def __init__(self, env, mode, name, flush_interval=0.005):
        self.env = env
        self.mode = mode
        profile = profile_for_mode(mode)
        self.disk = Disk(env, profile, name=f"{name}.disk") if profile else None
        self.records: Dict[int, LogRecord] = {}
        self.pending: List[LogRecord] = []
        self.flush_interval = flush_interval
        self.flush_scheduled = False

    def append(self, instance, ballot, value, size_bytes, on_durable=None, on_durable_args=()):
        record = LogRecord(instance, ballot, value, size_bytes)
        self.records[instance] = record
        if self.mode.synchronous:
            return self.disk.write(size_bytes + RECORD_OVERHEAD, on_complete=on_durable,
                                   on_complete_args=on_durable_args)
        if self.mode is not StorageMode.IN_MEMORY:
            self.pending.append(record)
            if not self.flush_scheduled:
                self.flush_scheduled = True
                self.env.simulator._post(self.flush_interval, self.flush)
        if on_durable is not None:
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return None

    def flush(self):
        self.flush_scheduled = False
        if self.pending:
            self.disk.write(sum(r.size_bytes + RECORD_OVERHEAD for r in self.pending))
            self.pending = []

    def get(self, instance):
        return self.records.get(instance)

    def __contains__(self, instance):
        return instance in self.records

    def __len__(self):
        return len(self.records)

    def instances(self):
        return sorted(self.records)

    def highest_instance(self):
        return max(self.records, default=-1)

    def trim(self, up_to_instance):
        stale = [i for i in self.records if i <= up_to_instance]
        for i in stale:
            del self.records[i]
        return len(stale)

    def crash(self):
        if self.mode is StorageMode.IN_MEMORY:
            self.records.clear()
        elif not self.mode.synchronous:
            for record in self.pending:
                self.records.pop(record.instance, None)
            self.pending.clear()


class ReferenceAcceptor:
    """All consensus state of one acceptor for one ring, one dict per kind."""

    def __init__(self, env, name, ring_id, storage_mode=StorageMode.IN_MEMORY):
        self.env = env
        self.log = ReferenceLog(env, storage_mode, f"{name}.r{ring_id}.wal")
        self.instances: Dict[int, AcceptorInstance] = {}
        self.decided: Dict[int, object] = {}
        self.trimmed_up_to = -1
        self.range_promised = -1

    def _instance(self, instance):
        if instance not in self.instances:
            self.instances[instance] = AcceptorInstance(instance)
            self.instances[instance].promised_ballot = self.range_promised
        return self.instances[instance]

    def promised_ballot(self, instance):
        held = self.instances.get(instance)
        return held.promised_ballot if held else self.range_promised

    def receive_phase1a(self, from_instance, to_instance, ballot):
        if ballot <= self.range_promised:
            return False
        self.range_promised = ballot
        for instance, state in self.instances.items():
            if from_instance <= instance <= to_instance:
                state.receive_phase1a(ballot)
        return True

    def receive_phase2(self, instance, ballot, value, on_durable=None, on_durable_args=()):
        if instance <= self.trimmed_up_to:
            return Accepted(accepted=False, ballot=ballot)
        result = self._instance(instance).receive_phase2a(ballot, value)
        if result.accepted and value.payload is not SKIP:
            self.log.append(instance, ballot, value, value.size_bytes, on_durable, on_durable_args)
        elif on_durable is not None:
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return result

    def receive_phase2_range(self, from_instance, to_instance, ballot, value,
                             on_durable=None, on_durable_args=()):
        all_accepted = True
        for instance in range(from_instance, to_instance + 1):
            if instance <= self.trimmed_up_to:
                all_accepted = False
                continue
            result = self._instance(instance).receive_phase2a(ballot, value)
            all_accepted = all_accepted and result.accepted
        if all_accepted and not value.is_skip():
            self.log.append(to_instance, ballot, value, value.size_bytes, on_durable,
                            on_durable_args)
        elif on_durable is not None:
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return all_accepted

    def accepted_value(self, instance):
        held = self.instances.get(instance)
        return held.accepted_value if held else None

    def accepted_in_range(self, from_instance, to_instance):
        return [
            (i, state.accepted_ballot, state.accepted_value)
            for i, state in sorted(self.instances.items())
            if from_instance <= i <= to_instance and state.has_accepted
        ]

    def record_decision(self, instance, value):
        if instance <= self.trimmed_up_to:
            return
        self.decided[instance] = value

    def is_decided(self, instance):
        return instance in self.decided

    def decided_between(self, from_instance, to_instance):
        return [(i, self.decided[i]) for i in range(from_instance, to_instance + 1)
                if i in self.decided]

    def decided_from(self, from_instance):
        return [(i, self.decided[i]) for i in sorted(self.decided) if i >= from_instance]

    @property
    def highest_decided(self):
        return max(self.decided, default=-1)

    def trim(self, up_to_instance):
        if up_to_instance <= self.trimmed_up_to:
            return 0
        removed = self.log.trim(up_to_instance)
        for container in (self.decided, self.instances):
            stale = [i for i in container if i <= up_to_instance]
            for i in stale:
                del container[i]
            removed += len(stale)
        self.trimmed_up_to = up_to_instance
        return removed

    def crash(self):
        self.log.crash()
        self.instances.clear()
        self.decided.clear()

    def recover_from_log(self):
        for instance in self.log.instances():
            record = self.log.get(instance)
            state = self._instance(instance)
            state.promised_ballot = state.accepted_ballot = record.ballot
            state.accepted_value = record.value
        return len(self.log)
