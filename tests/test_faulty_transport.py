"""Tests for the adversarial transport decorator and the nemesis generator."""

import pytest

from repro.faults import FaultyTransport, LinkFault, Nemesis, NemesisConfig
from repro.faults.nemesis import WARMUP, WINDOWS
from repro.faults.schedule import CrashController, FaultSchedule
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS, Region
from repro.obs.bus import RingSink
from repro.obs.instruments import Instruments
from repro.sim.kernel import Kernel
from repro.sim.process import Actor


class Sink(Actor):
    def __init__(self, kernel, name):
        super().__init__(kernel, name)
        self.received: list[Message] = []

    def on_message(self, message: Message) -> None:
        self.received.append(message)


def build_pair(seed=0):
    kernel = Kernel(seed=3)
    faulty = FaultyTransport(Network(kernel, NetworkConfig()), kernel, seed=seed)
    a = Sink(kernel, "a")
    b = Sink(kernel, "b")
    faulty.attach(a, Region.US_WEST1)
    faulty.attach(b, Region.ASIA_EAST2)
    return kernel, faulty, a, b


class TestPassThrough:
    def test_clean_transport_delivers_normally(self):
        kernel, faulty, a, b = build_pair()
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1
        assert faulty.messages_sent == 1
        assert faulty.messages_delivered == 1
        assert faulty.messages_dropped == 0

    def test_structural_protocol_delegates(self):
        kernel, faulty, a, b = build_pair()
        assert faulty.region_of("a") == Region.US_WEST1
        assert set(faulty.endpoints()) == {"a", "b"}
        assert faulty.latency("a", "b") > 0
        assert faulty.partitions.can_communicate("a", "b")

    def test_symmetric_partitions_still_work_through_wrapper(self):
        kernel, faulty, a, b = build_pair()
        faulty.partitions.partition([["a"], ["b"]])
        faulty.send("a", "b", "x")
        kernel.run()
        assert b.received == []


class TestDrop:
    def test_certain_drop_blocks_delivery(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["b"], drop=1.0)
        for _ in range(10):
            faulty.send("a", "b", "x")
        kernel.run()
        assert b.received == []
        assert faulty.injected["nemesis-drop"] == 10
        assert faulty.messages_sent == 10
        assert faulty.messages_dropped == 10

    def test_probabilistic_drop_loses_a_fraction(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["b"], drop=0.5)
        for _ in range(400):
            faulty.send("a", "b", "x")
        kernel.run()
        assert 120 < len(b.received) < 280
        assert len(b.received) + faulty.injected["nemesis-drop"] == 400

    def test_injected_drop_emits_balanced_trace_events(self):
        kernel, faulty, a, b = build_pair()
        sink = RingSink()
        Instruments(sink=sink).attach(kernel, faulty)
        faulty.degrade(["b"], drop=1.0)
        faulty.send("a", "b", "x")
        kernel.run()
        types = [event["type"] for event in sink.events()]
        assert types.count("msg.send") == 1
        assert types.count("msg.drop") == 1
        drop = next(e for e in sink.events() if e["type"] == "msg.drop")
        assert drop["reason"] == "nemesis-drop"

    def test_trace_tap_sees_injected_drops(self):
        kernel, faulty, a, b = build_pair()
        traced = []
        faulty.trace = traced.append
        faulty.degrade(["b"], drop=1.0)
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(traced) == 1

    def test_restore_clears_degradation(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["b"], drop=1.0)
        faulty.restore(["b"])
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1

    def test_restore_none_clears_everything(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["a"], drop=1.0)
        faulty.degrade(["b"], drop=1.0)
        faulty.restore(None)
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1


class TestDuplicate:
    def test_certain_duplicate_delivers_same_envelope_twice(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["b"], duplicate=1.0)
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 2
        assert b.received[0].msg_id == b.received[1].msg_id
        assert faulty.injected["duplicate"] == 1

    def test_duplicate_keeps_trace_accounting_balanced(self):
        kernel, faulty, a, b = build_pair()
        sink = RingSink()
        Instruments(sink=sink).attach(kernel, faulty)
        faulty.degrade(["b"], duplicate=1.0)
        faulty.send("a", "b", "x")
        kernel.run()
        types = [event["type"] for event in sink.events()]
        # Original + duplicate: two send/deliver pairs, never more
        # delivers than sends at any prefix.
        assert types.count("msg.send") == 2
        assert types.count("msg.deliver") == 2
        assert faulty.messages_sent == 2
        assert faulty.messages_delivered == 2


class TestDelay:
    def test_delay_spike_postpones_delivery(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["b"], delay=0.5)
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1
        assert b.received[0].delivered_at >= 0.5
        assert faulty.injected["delay"] == 1

    def test_jitter_reorders_against_clean_traffic(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["b"], delay=0.2, jitter=0.5)
        for index in range(30):
            faulty.send("a", "b", index)
        kernel.run()
        payloads = [m.payload for m in b.received]
        assert sorted(payloads) == list(range(30))
        assert payloads != list(range(30))


class TestOneWay:
    def test_blocks_one_direction_only(self):
        kernel, faulty, a, b = build_pair()
        faulty.isolate_oneway(["a"], ["b"])
        faulty.send("a", "b", "x")
        faulty.send("b", "a", "y")
        kernel.run()
        assert b.received == []
        assert len(a.received) == 1
        assert faulty.injected["partition-oneway"] == 1

    def test_heal_oneway_restores_flow(self):
        kernel, faulty, a, b = build_pair()
        faulty.isolate_oneway(["a"], ["b"])
        faulty.heal_oneway()
        faulty.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1
        assert not faulty.oneway_active


class TestLinkFault:
    def test_merge_takes_the_worse_of_each_field(self):
        merged = LinkFault(drop=0.1, delay=0.5).merge(
            LinkFault(drop=0.3, duplicate=0.2)
        )
        assert merged == LinkFault(drop=0.3, duplicate=0.2, delay=0.5)

    def test_message_subject_to_worse_of_both_ends(self):
        kernel, faulty, a, b = build_pair()
        faulty.degrade(["a"], drop=0.0)
        faulty.degrade(["b"], drop=1.0)
        faulty.send("a", "b", "x")
        kernel.run()
        assert b.received == []


class TestControllerIntegration:
    def build(self):
        kernel = Kernel(seed=1)
        faulty = FaultyTransport(Network(kernel, NetworkConfig()), kernel)
        controller = CrashController(kernel, faulty)
        actors = []
        for name in ("x", "y"):
            actor = Sink(kernel, name)
            faulty.attach(actor, Region.US_WEST1)
            controller.register(actor)
            actors.append(actor)
        return kernel, faulty, controller, actors

    def test_scheduled_degrade_and_restore(self):
        kernel, faulty, controller, (x, y) = self.build()
        controller.install(
            FaultSchedule()
            .degrade(1.0, "y", drop=1.0)
            .restore(2.0, "y")
        )
        kernel.schedule_at(1.5, faulty.send, "x", "y", "during")
        kernel.schedule_at(2.5, faulty.send, "x", "y", "after")
        kernel.run()
        assert [m.payload for m in y.received] == ["after"]

    def test_heal_clears_oneway_rules_too(self):
        kernel, faulty, controller, (x, y) = self.build()
        controller.install(
            FaultSchedule().partition_oneway(1.0, ("x",), ("y",)).heal(2.0)
        )
        kernel.schedule_at(1.5, faulty.send, "x", "y", "during")
        kernel.schedule_at(2.5, faulty.send, "x", "y", "after")
        kernel.run()
        assert [m.payload for m in y.received] == ["after"]

    def test_scheduled_faults_emit_trace_events(self):
        kernel, faulty, controller, actors = self.build()
        sink = RingSink()
        instruments = Instruments(sink=sink)
        instruments.attach(kernel, faulty)
        kernel.obs = instruments.bus
        controller.install(
            FaultSchedule()
            .degrade(1.0, "y", drop=0.5)
            .restore(2.0, "y")
            .partition_oneway(3.0, ("x",), ("y",))
        )
        kernel.run()
        types = [event["type"] for event in sink.events()]
        assert "fault.degrade" in types
        assert "fault.restore" in types
        assert "fault.partition_oneway" in types


class TestNemesis:
    def test_schedule_is_deterministic_per_seed(self):
        nemesis = Nemesis(7, tuple(PAPER_REGIONS))
        assert nemesis.schedule() == nemesis.schedule()
        assert nemesis.schedule() == Nemesis(7, tuple(PAPER_REGIONS)).schedule()

    def test_different_seeds_differ(self):
        schedules = {
            Nemesis(seed, tuple(PAPER_REGIONS)).schedule() for seed in range(8)
        }
        assert len(schedules) > 1

    def test_every_fault_closes_before_the_quiet_period(self):
        config = NemesisConfig(duration=120.0, quiet_period=40.0)
        for seed in range(20):
            schedule = Nemesis(seed, tuple(PAPER_REGIONS), config).schedule()
            assert schedule, f"seed {seed} produced an empty schedule"
            assert max(fault.time for fault in schedule) <= 80.0
            assert min(fault.time for fault in schedule) >= WARMUP
            # Windows open and close in pairs.
            assert len(schedule) == 2 * WINDOWS

    def test_crashes_never_take_a_majority_of_regions(self):
        majority = (len(PAPER_REGIONS) + 1) // 2
        for seed in range(30):
            for fault in Nemesis(seed, tuple(PAPER_REGIONS)).schedule():
                if fault.action == "crash":
                    assert len(fault.regions) < majority

    def test_describe_matches_schedule_length(self):
        nemesis = Nemesis(7, tuple(PAPER_REGIONS))
        assert len(nemesis.describe()) == len(nemesis.schedule())

    def test_too_few_regions_rejected(self):
        with pytest.raises(ValueError, match="at least 3 regions"):
            Nemesis(1, (Region.US_WEST1, Region.ASIA_EAST2))

    def test_config_requires_enough_active_time(self):
        with pytest.raises(ValueError, match="active time"):
            NemesisConfig(duration=30.0, quiet_period=20.0)
