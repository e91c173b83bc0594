"""Tests of the deployment configuration and client building blocks."""

import pytest

from repro.core.client import Command
from repro.core.config import MultiRingConfig, global_config
from repro.core.amcast import AtomicMulticast, parse_roles
from repro.paxos.messages import ProposalValue
from repro.sim.disk import StorageMode
from tests.conftest import RecordingProcess


class TestMultiRingConfig:
    def test_paper_presets(self):
        local = MultiRingConfig()
        assert local.messages_per_round == 1
        assert local.rate_interval == pytest.approx(0.005)
        assert local.max_rate == 9000.0
        remote = global_config()
        assert remote.rate_interval == pytest.approx(0.020)
        assert remote.max_rate == 2000.0

    @pytest.mark.parametrize("config, skips", [
        (MultiRingConfig(storage_mode=StorageMode.SYNC_SSD, batching_enabled=True,
                         rate_interval=0.01, max_rate=500), 5),
        (MultiRingConfig(rate_interval=None), 0),
    ], ids=["batched-levelled", "unlevelled"])
    def test_a_coordinator_honours_its_deployment_s_batching_and_rate(self, config, skips):
        system = AtomicMulticast(seed=1, config=config)
        process = RecordingProcess(system.env, "p0")
        system.create_ring(0, [(process.name, "pal")])
        node = process.node(0)
        assert node.config is config
        assert node.acceptor.storage_mode is config.storage_mode
        coordinator = node.coordinator
        coordinator.record_promise("p0", quorum=1)
        for size in (100, 100):
            coordinator.enqueue(ProposalValue(payload=size, size_bytes=size))
        # batching packs both values into one instance; λ·Δ tops it up
        assert len(coordinator.next_assignments()) == (1 if config.batching_enabled else 2)
        assert coordinator.skips_for_interval() == max(0, skips - 1)

    def test_with_copies(self):
        config = MultiRingConfig()
        changed = config.with_(max_rate=123.0)
        assert changed.max_rate == 123.0
        assert config.max_rate == 9000.0


class TestParseRoles:
    def test_parse_all_roles(self):
        member = parse_roles("n1", "pal")
        assert member.proposer and member.acceptor and member.learner

    def test_parse_subset(self):
        member = parse_roles("n1", "l")
        assert member.learner and not member.acceptor and not member.proposer

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            parse_roles("n1", "px")


class TestCommandDefaults:
    def test_commands_get_unique_ids(self):
        a, b = Command(op="read"), Command(op="read")
        assert a.command_id != b.command_id

    def test_default_sizes(self):
        command = Command(op="read", args=("k",), group_id=2)
        assert command.size_bytes > 0
        assert command.response_size > 0
