"""Tests of the trim quorum computation, the live trim rule, the predicates and the checkpointer."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring.merge import DeterministicMerger
from repro.paxos.messages import SKIP, ProposalValue, TrimReport
from repro.recovery.checkpointing import ReplicaCheckpointer
from repro.recovery.trim import compute_trim_point, trim_quorum_size
from repro.ringpaxos import node as node_module
from repro.ringpaxos.coordinator import PackedValues
from repro.sim.actor import Environment
from repro.storage.checkpoint import CheckpointStore
from tests.conftest import RecordingProcess, mutate


class TestTrimQuorum:
    def test_quorum_size_is_a_majority(self):
        assert trim_quorum_size(1) == 1
        assert trim_quorum_size(3) == 2
        assert trim_quorum_size(4) == 3
        assert trim_quorum_size(0) == 1  # every learner evicted: one report still counts
        with pytest.raises(ValueError):
            trim_quorum_size(-1)

    def test_trim_point_requires_quorum(self):
        assert compute_trim_point({"r1": 10}, quorum=2) is None
        assert compute_trim_point({"r1": 10, "r2": 7}, quorum=2) == 7

    def test_trim_point_is_the_minimum(self):
        reports = {"r1": 100, "r2": 50, "r3": 80}
        assert compute_trim_point(reports, quorum=3) == 50

    def test_unckeckpointed_replica_blocks_trimming(self):
        assert compute_trim_point({"r1": -1, "r2": 10}, quorum=2) is None

    def test_invalid_quorum(self):
        with pytest.raises(ValueError):
            compute_trim_point({"r1": 1}, quorum=0)

    @given(
        st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), st.integers(0, 1000),
                        min_size=1, max_size=5)
    )
    @settings(max_examples=60, deadline=None)
    def test_predicate2_trim_point_never_exceeds_any_quorum_member(self, reports):
        """Predicate 2: K_T <= k[x]_p for every p in the quorum."""
        quorum = len(reports)
        trim_point = compute_trim_point(reports, quorum=quorum)
        if trim_point is not None:
            assert all(trim_point <= safe for safe in reports.values())

    @given(
        st.dictionaries(st.sampled_from(list("abcdefg")), st.integers(0, 100), min_size=3, max_size=7),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_predicate5_holds_for_intersecting_quorums(self, reports, data):
        """Predicate 5: with intersecting quorums, K_T <= K_R."""
        names = sorted(reports)
        majority = len(names) // 2 + 1
        trim_q = {n: reports[n] for n in data.draw(st.permutations(names))[:majority]}
        recovery_q = {n: reports[n] for n in data.draw(st.permutations(names))[:majority]}
        assert set(trim_q) & set(recovery_q)
        trim_point = compute_trim_point(trim_q, quorum=majority)
        assert trim_point is not None and trim_point <= max(recovery_q.values())


class TestLiveTrimRule:
    """The coordinator trims with :func:`trim_quorum_size` and :func:`compute_trim_point`."""

    EXPECTED = [-1, -1, 28, 28, 28]

    @staticmethod
    def _deployment():
        """A five-process ring that decided 40 values; its coordinator's node."""
        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        processes = [RecordingProcess(system.env, f"n{i}") for i in range(5)]
        system.create_ring(0, [(p.name, "pal") for p in processes])
        system.start()
        for i in range(40):
            processes[0].multicast(0, payload=i, size_bytes=64)
        system.run(until=1.0)
        return system, processes, system.process(system.ring(0).coordinator).node(0)

    @classmethod
    def _trim_points(cls, safe_instances=(30, 29, 28, 27, 26), trim_quorum=None):
        """The coordinator's trim point after each learner reports.

        By default the reports carry safe instances 30, 29, ..., 26 and no trim
        quorum is configured, so a majority (three) of the five learners must
        answer.
        """
        _system, processes, node = cls._deployment()
        if trim_quorum is not None:
            node.config = replace(node.config, trim_quorum=trim_quorum)
        points = []
        for process, safe in zip(processes, safe_instances):
            report = TrimReport(ring_id=0, replica=process.name, safe_instance=safe)
            node._handle_trim_report(process.name, report)
            points.append(node.acceptor.trimmed_up_to)
        return points

    def test_live_trim_waits_for_a_majority_of_learners(self):
        assert self._trim_points() == self.EXPECTED

    @pytest.mark.parametrize("mutant", ["replica_count // 2", "replica_count // 2 + 2"])
    def test_an_off_by_one_live_quorum_is_caught(self, monkeypatch, mutant):
        wrong = mutate(trim_quorum_size, ("replica_count // 2 + 1", mutant))
        monkeypatch.setattr(node_module, "trim_quorum_size", wrong)
        assert self._trim_points() != self.EXPECTED

    def test_a_configured_trim_quorum_overrides_the_majority(self):
        # Two reports suffice; the reports start over after each trim.
        assert self._trim_points(trim_quorum=2) == [-1, 29, 29, 29, 29]
        assert self._trim_points((10, 20, 30, 40), trim_quorum=2) == [-1, 10, 10, 30]

    def test_an_uncheckpointed_learner_blocks_the_live_trim(self):
        assert self._trim_points((30, -1, 28, 27, 26)) == [-1] * 5

    def test_reports_start_over_after_each_trim(self):
        # Three reports trim to 10; the next two are below quorum on their own.
        assert self._trim_points((10, 12, 14, 16, 18)) == [-1, -1, 10, 10, 10]

    def test_the_other_acceptors_trim_on_the_coordinator_s_command(self):
        system, processes, node = self._deployment()
        for process, safe in zip(processes[:3], (30, 29, 28)):
            node._handle_trim_report(
                process.name, TrimReport(ring_id=0, replica=process.name, safe_instance=safe)
            )
        system.run(until=1.5)
        trimmed = {p.name: p.node(0).acceptor.trimmed_up_to
                   for p in processes if p.node(0).acceptor is not None}
        assert len(trimmed) >= 2
        assert set(trimmed.values()) == {28}

    def test_a_node_that_does_not_coordinate_ignores_trim_reports(self):
        _system, processes, node = self._deployment()
        other = next(p.node(0) for p in processes
                     if p.node(0) is not node and p.node(0).acceptor is not None)
        for process in processes:
            other._handle_trim_report(
                process.name, TrimReport(ring_id=0, replica=process.name, safe_instance=30)
            )
        assert other.acceptor.trimmed_up_to == -1
        assert node.acceptor.trimmed_up_to == -1


class TestReplicaCheckpointer:
    def _checkpointer(self, groups=(0,), boundary=None):
        env = Environment()
        store = CheckpointStore(env)
        state = {"value": 0}
        boundary_flag = {"at_boundary": True}

        def snapshot():
            return dict(state), 100

        checkpointer = ReplicaCheckpointer(
            store=store,
            snapshot_fn=snapshot,
            group_ids=list(groups),
            at_round_boundary=boundary or (lambda: boundary_flag["at_boundary"]),
        )
        return env, checkpointer, state, boundary_flag

    def test_requires_groups(self):
        env = Environment()
        with pytest.raises(ValueError):
            ReplicaCheckpointer(CheckpointStore(env), lambda: (None, 1), group_ids=[])

    def test_checkpoint_records_delivered_positions(self):
        env, checkpointer, state, _ = self._checkpointer(groups=(0, 1))
        checkpointer.mark_delivered(0, 10)
        checkpointer.mark_delivered(1, 9)
        assert checkpointer.request_checkpoint()
        latest = checkpointer.store.latest()
        assert latest.checkpoint_id.as_dict() == {0: 10, 1: 9}
        # Predicate 1: round-robin delivery consumed at least as many
        # instances of a lower group as of a higher one.
        instances = [i for _, i in latest.checkpoint_id.entries]
        assert instances == sorted(instances, reverse=True)
        assert checkpointer.checkpoints_taken == 1

    def test_safe_instance_reflects_last_checkpoint_only(self):
        env, checkpointer, state, _ = self._checkpointer()
        assert checkpointer.safe_instance(0) == -1
        checkpointer.mark_delivered(0, 5)
        checkpointer.request_checkpoint()
        checkpointer.mark_delivered(0, 50)
        assert checkpointer.safe_instance(0) == 5

    def test_deferred_checkpoint_waits_for_round_boundary(self):
        env, checkpointer, state, boundary = self._checkpointer()
        boundary["at_boundary"] = False
        assert not checkpointer.request_checkpoint()
        assert checkpointer.checkpoints_taken == 0
        boundary["at_boundary"] = True
        assert checkpointer.maybe_take_deferred()
        assert checkpointer.checkpoints_taken == 1
        # no pending request left
        assert not checkpointer.maybe_take_deferred()

    def test_mark_delivered_ignores_regressions_and_unknown_groups(self):
        env, checkpointer, state, _ = self._checkpointer()
        checkpointer.mark_delivered(0, 10)
        checkpointer.mark_delivered(0, 5)
        checkpointer.request_checkpoint()
        assert checkpointer.store.latest().checkpoint_id.as_dict() == {0: 10}
        with pytest.raises(KeyError):
            checkpointer.mark_delivered(9, 1)


class TestDeferredCheckpointAndPackedInstances:
    """A deferred checkpoint is cut between instances, never inside a packed one.

    The replica polls the checkpointer from every *leaf* delivery
    (``StateMachineReplica.on_deliver``: ``mark_delivered`` +
    ``maybe_take_deferred``) and the merger's round-boundary predicate still
    holds while the first instance of a round is being emitted — so a
    checkpoint used to be cut after the first leaf of a packed instance, with
    a tuple that covers the whole instance: a replica recovering from it would
    fast-forward past commands the snapshot never saw.
    """

    @staticmethod
    def _replica(groups=(0, 1)):
        applied = []
        checkpoints = []

        def on_deliver(group, instance, value):  # what StateMachineReplica.on_deliver does
            applied.append((group, instance, value.payload))
            checkpointer.mark_delivered(group, instance)
            checkpointer.maybe_take_deferred()

        store = CheckpointStore(Environment())
        save = store.save

        def recording_save(*args):  # every checkpoint taken, in order
            checkpoints.append(save(*args))
            return checkpoints[-1]

        store.save = recording_save
        merger = DeterministicMerger(list(groups), messages_per_round=1, on_deliver=on_deliver)
        checkpointer = ReplicaCheckpointer(
            store=store,
            snapshot_fn=lambda: (list(applied), 100),
            group_ids=list(groups),
            at_round_boundary=merger.is_round_boundary,
        )
        return merger, checkpointer, applied, checkpoints

    @staticmethod
    def _value(*payloads):
        values = [ProposalValue(payload=SKIP if p == "skip" else p, size_bytes=8) for p in payloads]
        if len(values) == 1:
            return values[0]
        return ProposalValue(payload=PackedValues(values=values), size_bytes=8 * len(values))

    @staticmethod
    def _assert_snapshot_is_exactly_the_tuple(checkpoint, everything):
        covered = checkpoint.checkpoint_id.as_dict()
        expected = [entry for entry in everything if entry[1] <= covered[entry[0]]]
        assert sorted(checkpoint.state) == sorted(expected)

    def test_checkpoint_deferred_into_a_packed_instance_covers_all_of_it(self):
        merger, checkpointer, applied, checkpoints = self._replica()
        merger.offer(0, 0, self._value("a"))
        assert not checkpointer.request_checkpoint()        # mid-round: deferred
        merger.offer(0, 1, self._value("b", "c", "d"))      # waits for ring 1
        merger.offer(1, 0, self._value("skip"))             # closes the round; emits b c d
        assert [entry[2] for entry in applied] == ["a", "b", "c", "d"]
        assert len(checkpoints) == 1
        assert checkpoints[0].checkpoint_id.as_dict() == {0: 1, 1: -1}
        self._assert_snapshot_is_exactly_the_tuple(checkpoints[0], applied)

    @pytest.mark.parametrize("pack", [("b", "c", "skip"), ("b", ("c", "d")), ("skip", "b", "c")])
    def test_packs_ending_in_a_skip_or_a_nested_pack_are_never_cut_inside(self, pack):
        merger, checkpointer, applied, checkpoints = self._replica()
        merger.offer(0, 0, self._value("a"))
        checkpointer.request_checkpoint()
        leaves = [self._value(*p) if isinstance(p, tuple) else self._value(p) for p in pack]
        merger.offer(0, 1, ProposalValue(payload=PackedValues(values=leaves), size_bytes=24))
        merger.offer(1, 0, self._value("skip"))
        merger.offer(0, 2, self._value("e"))
        merger.offer(1, 1, self._value("f"))
        merger.offer(0, 3, self._value("g"))
        assert checkpoints, "the deferred checkpoint is taken at a later boundary at the latest"
        for checkpoint in checkpoints:
            self._assert_snapshot_is_exactly_the_tuple(checkpoint, applied)
