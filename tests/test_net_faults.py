"""Tests for scheduled fault injection."""

import pytest

from repro.faults.schedule import CrashController, FaultEvent, FaultSchedule
from repro.net.network import Network
from repro.net.regions import Region
from repro.sim.kernel import Kernel
from repro.sim.process import Actor


def build():
    kernel = Kernel()
    network = Network(kernel)
    controller = CrashController(kernel, network)
    actors = []
    for name in ("x", "y", "z"):
        actor = Actor(kernel, name)
        network.attach(actor, Region.US_WEST1)
        controller.register(actor)
        actors.append(actor)
    return kernel, network, controller, actors


class TestFaultSchedule:
    def test_builder_methods_append_events(self):
        schedule = (
            FaultSchedule()
            .crash(1.0, "x")
            .recover(2.0, "x")
            .partition(3.0, ("x",), ("y", "z"))
            .heal(4.0)
        )
        assert [event.action for event in schedule.events] == [
            "crash",
            "recover",
            "partition",
            "heal",
        ]

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "explode")

    def test_degradation_builders_append_events(self):
        schedule = (
            FaultSchedule()
            .degrade(1.0, "x", drop=0.2, duplicate=0.1, delay=0.05, jitter=0.02)
            .restore(2.0, "x")
            .partition_oneway(3.0, ("x",), ("y", "z"))
        )
        assert [event.action for event in schedule.events] == [
            "degrade",
            "restore",
            "partition-oneway",
        ]
        assert schedule.events[0].drop == 0.2
        assert schedule.events[2].groups == (("x",), ("y", "z"))


class TestFaultEventValidation:
    @pytest.mark.parametrize("action", ["crash", "recover", "degrade", "restore"])
    def test_targeted_action_with_no_targets_rejected(self, action):
        with pytest.raises(ValueError, match="names no targets"):
            FaultEvent(1.0, action)

    def test_partition_with_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="appears in two groups"):
            FaultEvent(1.0, "partition", groups=(("x", "y"), ("y", "z")))

    def test_oneway_with_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="appears in two groups"):
            FaultEvent(1.0, "partition-oneway", groups=(("x",), ("x", "y")))

    def test_oneway_needs_exactly_two_nonempty_groups(self):
        with pytest.raises(ValueError, match="two non-empty groups"):
            FaultEvent(1.0, "partition-oneway", groups=(("x",),))
        with pytest.raises(ValueError, match="two non-empty groups"):
            FaultEvent(1.0, "partition-oneway", groups=(("x",), ()))

    def test_validation_error_carries_event_repr(self):
        with pytest.raises(ValueError, match="FaultEvent"):
            FaultEvent(1.0, "crash")

    def test_drop_and_duplicate_must_be_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            FaultEvent(1.0, "degrade", ("x",), drop=1.5)
        with pytest.raises(ValueError, match="probabilities"):
            FaultEvent(1.0, "degrade", ("x",), duplicate=-0.1)

    def test_delay_and_jitter_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(1.0, "degrade", ("x",), delay=-1.0)


class TestCrashController:
    def test_crash_and_recover_apply_at_times(self):
        kernel, network, controller, (x, y, z) = build()
        controller.install(FaultSchedule().crash(1.0, "x").recover(2.0, "x"))
        kernel.run(until=1.5)
        assert x.crashed
        assert not y.crashed
        kernel.run(until=2.5)
        assert not x.crashed

    def test_partition_and_heal(self):
        kernel, network, controller, actors = build()
        controller.install(
            FaultSchedule().partition(1.0, ("x",), ("y", "z")).heal(2.0)
        )
        kernel.run(until=1.5)
        assert not network.partitions.can_communicate("x", "y")
        assert network.partitions.can_communicate("y", "z")
        kernel.run(until=2.5)
        assert network.partitions.can_communicate("x", "y")

    def test_unknown_target_is_ignored(self):
        kernel, network, controller, actors = build()
        controller.install(FaultSchedule().crash(1.0, "ghost"))
        kernel.run()
        assert controller.applied[0].targets == ("ghost",)

    def test_multiple_targets_in_one_event(self):
        kernel, network, controller, (x, y, z) = build()
        controller.install(FaultSchedule().crash(1.0, "x", "y"))
        kernel.run()
        assert x.crashed and y.crashed and not z.crashed

    def test_degrade_on_bare_network_raises(self):
        kernel, network, controller, actors = build()
        controller.install(FaultSchedule().degrade(1.0, "x", drop=0.5))
        with pytest.raises(TypeError, match="FaultyTransport"):
            kernel.run()

    def test_oneway_on_bare_network_raises(self):
        kernel, network, controller, actors = build()
        controller.install(FaultSchedule().partition_oneway(1.0, ("x",), ("y",)))
        with pytest.raises(TypeError, match="FaultyTransport"):
            kernel.run()
