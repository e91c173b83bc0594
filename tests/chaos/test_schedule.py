"""Unit tests of the fault-schedule DSL."""

import pytest

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
from repro.sim.disk import Disk, SSD_PROFILE
from repro.sim.topology import Topology


def two_site_system(seed=3):
    topo = Topology()
    topo.add_site("a")
    topo.add_site("b")
    topo.set_link("a", "b", one_way_latency=0.001, bandwidth_bps=1e9)
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(topology=topo, config=config, seed=seed)
    procs = [
        MultiRingProcess(system.env, f"n{i}", site="a" if i < 2 else "b")
        for i in range(4)
    ]
    system.create_ring(0, [(p.name, "pal") for p in procs])
    return system, procs


class TestDslBasics:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().add(1.0, "meteor_strike", site="a")

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule().crash(2.0, "x").restart(3.0, "x").partition(1.0, "a", "b")
        assert [e.action for e in schedule.events] == ["partition", "crash", "restart"]
        assert schedule.end_time == 3.0

    def test_round_trips_through_dicts(self):
        schedule = (
            FaultSchedule()
            .crash(0.5, "n1")
            .partition(0.7, "a", "b")
            .disk_spike(0.9, factor=10.0, match="n2")
            .restart(1.1, "n1")
            .heal(1.2, "a", "b")
        )
        rebuilt = FaultSchedule.from_dicts(schedule.to_dicts())
        assert rebuilt.to_dicts() == schedule.to_dicts()
        assert len(rebuilt.events) == 5


class TestExecution:
    def test_crash_and_restart_fire_on_the_sim_clock(self):
        system, procs = two_site_system()
        schedule = FaultSchedule().crash(0.5, "n0").restart(1.0, "n0")
        schedule.apply(system)
        system.start()
        system.run(until=0.7)
        assert not procs[0].alive
        assert "n0" not in system.ring(0)
        system.run(until=1.2)
        assert procs[0].alive
        assert "n0" in system.ring(0)
        assert [action for _, action, _ in schedule.executed] == ["crash", "restart"]

    def test_crash_of_dead_process_is_a_noop(self):
        system, procs = two_site_system()
        schedule = FaultSchedule().crash(0.2, "n0").crash(0.3, "n0").restart(0.5, "n0")
        schedule.apply(system)
        system.start()
        system.run(until=1.0)
        assert procs[0].alive

    def test_partition_and_heal_toggle_network_faults(self):
        system, _ = two_site_system()
        schedule = FaultSchedule().partition(0.2, "a", "b").heal(0.6, "a", "b")
        schedule.apply(system)
        system.start()
        system.run(until=0.4)
        assert system.network._has_faults
        assert ("a", "b") in system.network._cut_links
        system.run(until=0.8)
        assert not system.network._has_faults

    def test_isolation_toggles_site_faults(self):
        system, _ = two_site_system()
        schedule = FaultSchedule().isolate(0.2, "b").rejoin(0.5, "b")
        schedule.apply(system)
        system.start()
        system.run(until=0.3)
        assert "b" in system.network._isolated_sites
        system.run(until=0.6)
        assert not system.network._isolated_sites

    def test_disk_spike_targets_matching_devices(self):
        system, _ = two_site_system()
        fast = Disk(system.env, SSD_PROFILE, name="n0.wal.disk")
        other = Disk(system.env, SSD_PROFILE, name="n1.wal.disk")
        schedule = (
            FaultSchedule()
            .disk_spike(0.1, factor=8.0, match="n0")
            .disk_restore(0.5, match="n0")
        )
        schedule.apply(system)
        system.start()
        system.run(until=0.2)
        assert fast._slowdown == 8.0
        assert other._slowdown == 1.0
        system.run(until=0.6)
        assert fast._slowdown == 1.0

    def test_disk_spike_slows_writes_down(self):
        system, _ = two_site_system()
        disk = Disk(system.env, SSD_PROFILE, name="d")
        healthy = disk.write(1024) - system.env.now
        spiked_disk = Disk(system.env, SSD_PROFILE, name="d2")
        spiked_disk.set_slowdown(10.0)
        t0 = system.env.now
        spiked_done = spiked_disk.write(1024)
        assert spiked_done - t0 == pytest.approx(10 * healthy)
        spiked_disk.clear_slowdown()
        assert spiked_disk.write(1024) - spiked_done == pytest.approx(healthy)

    def test_invalid_slowdown_rejected(self):
        system, _ = two_site_system()
        disk = Disk(system.env, SSD_PROFILE, name="d")
        with pytest.raises(ValueError):
            disk.set_slowdown(0.0)

    def test_environment_registers_disks(self):
        system, _ = two_site_system()
        before = len(system.env.disks())
        disk = Disk(system.env, SSD_PROFILE, name="registered")
        assert disk in system.env.disks()
        assert len(system.env.disks()) == before + 1

    def test_remove_and_add_to_ring(self):
        system, procs = two_site_system()
        schedule = (
            FaultSchedule()
            .add(0.2, "remove_from_ring", ring_id=0, process="n3")
            .add(0.6, "add_to_ring", ring_id=0, process="n3", roles="pal")
        )
        schedule.apply(system)
        system.start()
        system.run(until=0.4)
        assert "n3" not in system.ring(0)
        system.run(until=0.8)
        assert "n3" in system.ring(0)

    def test_last_acceptor_is_never_removed(self):
        system, procs = two_site_system()
        for name in ("n1", "n2", "n3"):
            system.remove_from_ring(0, name)
        schedule = FaultSchedule().add(0.1, "remove_from_ring", ring_id=0, process="n0")
        schedule.apply(system)
        system.start()
        system.run(until=0.5)
        assert "n0" in system.ring(0)
