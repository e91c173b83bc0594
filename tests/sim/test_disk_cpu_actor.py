"""Tests of the disk models, CPU accounting and the actor layer."""

import pytest

from repro.net.message import Message
from repro.sim.actor import Actor, Environment
from repro.sim.cpu import CpuAccount, CpuCostModel
from repro.sim.disk import (
    Disk,
    HDD_PROFILE,
    SSD_PROFILE,
    StorageMode,
    profile_for_mode,
)
from repro.sim.network import Network
from repro.sim.topology import single_datacenter


class TestStorageMode:
    def test_synchronous_flag(self):
        assert StorageMode.SYNC_HDD.synchronous
        assert StorageMode.SYNC_SSD.synchronous
        assert not StorageMode.ASYNC_HDD.synchronous
        assert not StorageMode.IN_MEMORY.synchronous

    def test_persistence_flag(self):
        assert not StorageMode.IN_MEMORY.persistent
        assert StorageMode.ASYNC_SSD.persistent

    def test_profile_for_mode(self):
        assert profile_for_mode(StorageMode.IN_MEMORY) is None
        assert profile_for_mode(StorageMode.SYNC_SSD) is SSD_PROFILE
        assert profile_for_mode(StorageMode.ASYNC_HDD) is HDD_PROFILE


class TestDisk:
    def test_write_time_includes_access_and_transfer(self):
        assert HDD_PROFILE.write_time(0) == pytest.approx(HDD_PROFILE.access_latency)
        assert HDD_PROFILE.write_time(120_000_000) > 1.0

    def test_writes_serialise(self):
        env = Environment()
        disk = Disk(env, SSD_PROFILE)
        first = disk.write(1024)
        second = disk.write(1024)
        assert second > first
        assert disk.write_count == 2
        assert disk.bytes_written == 2048

    def test_completion_callback_fires_at_durable_time(self):
        env = Environment()
        disk = Disk(env, SSD_PROFILE)
        done = []
        finish = disk.write(1024, on_complete=lambda: done.append(env.simulator.now))
        env.simulator.run()
        assert done and done[0] == pytest.approx(finish)

    def test_ssd_is_faster_than_hdd(self):
        assert SSD_PROFILE.write_time(4096) < HDD_PROFILE.write_time(4096)

    def test_negative_size_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Disk(env, SSD_PROFILE).write(-1)

    def test_writes_queue_behind_the_backlog(self):
        env = Environment()
        disk = Disk(env, HDD_PROFILE)
        first = disk.write(1024)
        second = disk.write(1024)
        assert second - first == pytest.approx(first - env.now)


class TestCpuAccounting:
    def test_charge_and_utilization(self):
        clock = {"now": 0.0}
        account = CpuAccount(clock=lambda: clock["now"])
        account.reset_window()
        account.charge_message(CpuCostModel(per_message=0.5, per_byte=0.0), size_bytes=0)
        clock["now"] = 1.0
        assert account.utilization() == pytest.approx(0.5)
        assert account.utilization_percent() == pytest.approx(50.0)

    def test_utilization_can_exceed_one_core(self):
        clock = {"now": 0.0}
        account = CpuAccount(clock=lambda: clock["now"])
        account.reset_window()
        account.charge_message(CpuCostModel(per_message=2.0, per_byte=0.0), size_bytes=0)
        clock["now"] = 1.0
        assert account.utilization() == pytest.approx(2.0)

    def test_charge_message_uses_model(self):
        model = CpuCostModel(per_message=1e-6, per_byte=1e-9)
        clock = {"now": 0.0}
        account = CpuAccount(clock=lambda: clock["now"])
        account.charge_message(model, size_bytes=500)
        account.charge_message(model, size_bytes=500)
        clock["now"] = 1.0
        assert account.utilization() == pytest.approx(2e-6 + 1e-6)

    def test_empty_window_utilization_is_zero(self):
        account = CpuAccount(clock=lambda: 0.0)
        account.reset_window()
        assert account.utilization() == 0.0


class Echo(Actor):
    def __init__(self, env, name):
        super().__init__(env, name)
        self.got = []

    def on_message(self, sender, message):
        self.got.append(message)


class TestActor:
    def _env(self):
        env = Environment(seed=2)
        Network(env, single_datacenter(), jitter_fraction=0.0)
        return env

    def test_duplicate_names_rejected(self):
        env = self._env()
        Echo(env, "a")
        with pytest.raises(ValueError):
            Echo(env, "a")

    def test_timers_fire_and_cancel(self):
        env = self._env()
        actor = Echo(env, "a")
        fired = []
        actor.set_timer(1.0, lambda: fired.append("once"))
        timer = actor.set_periodic_timer(0.5, lambda: fired.append("tick"))
        env.run(until=2.6)
        timer.cancel()
        env.run(until=5.0)
        assert fired.count("once") == 1
        assert fired.count("tick") == 5

    def test_crash_cancels_timers_and_drops_messages(self):
        env = self._env()
        a = Echo(env, "a")
        b = Echo(env, "b")
        ticks = []
        b.set_periodic_timer(0.5, lambda: ticks.append(1))
        b.crash()
        a.send("b", Message())
        env.run(until=3.0)
        assert b.got == []
        assert ticks == []

    def test_restart_resumes_message_delivery(self):
        env = self._env()
        a = Echo(env, "a")
        b = Echo(env, "b")
        b.crash()
        b.restart()
        hello = Message()
        a.send("b", hello)
        env.run()
        assert b.got == [hello]

    def test_rng_streams_are_stable_per_actor(self):
        env = self._env()
        a = Echo(env, "a")
        first = a.rng("x").random()
        env2 = Environment(seed=2)
        Network(env2, single_datacenter())
        a2 = Echo(env2, "a")
        assert a2.rng("x").random() == pytest.approx(first)

    def test_crashed_actor_does_not_send(self):
        env = self._env()
        a = Echo(env, "a")
        b = Echo(env, "b")
        a.crash()
        a.send("b", Message())
        env.run()
        assert b.got == []
