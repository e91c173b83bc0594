"""Tests of the deployment configuration and client building blocks."""

import pytest

from repro.core.client import Command
from repro.core.config import MultiRingConfig, global_config
from repro.core.amcast import parse_roles
from repro.sim.disk import StorageMode


class TestMultiRingConfig:
    def test_paper_presets(self):
        local = MultiRingConfig()
        assert local.messages_per_round == 1
        assert local.rate_interval == pytest.approx(0.005)
        assert local.max_rate == 9000.0
        remote = global_config()
        assert remote.rate_interval == pytest.approx(0.020)
        assert remote.max_rate == 2000.0

    def test_rate_leveler_derivation(self):
        config = MultiRingConfig(rate_interval=0.01, max_rate=500)
        leveler = config.rate_leveler()
        assert leveler.expected_per_interval == pytest.approx(5.0)
        assert MultiRingConfig(rate_interval=None).rate_leveler() is None

    def test_ring_node_config_carries_storage_and_batching(self):
        config = MultiRingConfig(storage_mode=StorageMode.SYNC_SSD, batching_enabled=True)
        node_config = config.ring_node_config()
        assert node_config.storage_mode is StorageMode.SYNC_SSD
        assert node_config.batch_policy.enabled

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
