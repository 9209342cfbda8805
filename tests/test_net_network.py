"""Tests for the geo network: latency, loss, partitions, crashes."""

import pytest

from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.net.regions import (
    PAPER_REGIONS,
    Region,
    one_way_latency,
    rtt,
)
from repro.sim.kernel import Kernel
from repro.sim.process import Actor


class Sink(Actor):
    def __init__(self, kernel, name):
        super().__init__(kernel, name)
        self.received: list[Message] = []

    def on_message(self, message: Message) -> None:
        self.received.append(message)


def build_pair(loss=0.0, jitter=0.0):
    kernel = Kernel(seed=3)
    network = Network(
        kernel, NetworkConfig(loss_probability=loss, jitter_sigma=jitter)
    )
    a = Sink(kernel, "a")
    b = Sink(kernel, "b")
    network.attach(a, Region.US_WEST1)
    network.attach(b, Region.ASIA_EAST2)
    return kernel, network, a, b


class TestRegions:
    def test_rtt_is_symmetric(self):
        for x in PAPER_REGIONS:
            for y in PAPER_REGIONS:
                assert rtt(x, y) == rtt(y, x)

    def test_intra_region_is_fast(self):
        assert rtt(Region.US_WEST1, Region.US_WEST1) < 0.002

    def test_one_way_is_half_rtt(self):
        assert one_way_latency(Region.US_WEST1, Region.ASIA_EAST2) == pytest.approx(
            rtt(Region.US_WEST1, Region.ASIA_EAST2) / 2
        )

    def test_all_paper_region_pairs_defined(self):
        for x in PAPER_REGIONS:
            for y in PAPER_REGIONS:
                assert rtt(x, y) > 0


class TestDelivery:
    def test_message_arrives_after_base_latency(self):
        kernel, network, a, b = build_pair()
        network.send("a", "b", "hello")
        kernel.run()
        assert len(b.received) == 1
        expected = one_way_latency(Region.US_WEST1, Region.ASIA_EAST2)
        assert b.received[0].delivered_at == pytest.approx(expected, rel=0.05)

    def test_payload_and_routing_metadata(self):
        kernel, network, a, b = build_pair()
        network.send("a", "b", {"k": 1})
        kernel.run()
        message = b.received[0]
        assert message.src == "a"
        assert message.dst == "b"
        assert message.payload == {"k": 1}

    def test_unknown_destination_is_dropped(self):
        kernel, network, a, b = build_pair()
        network.send("a", "nobody", "x")
        kernel.run()
        assert network.messages_dropped == 1

    def test_crashed_endpoint_receives_nothing(self):
        kernel, network, a, b = build_pair()
        b.crash()
        network.send("a", "b", "x")
        kernel.run()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_loss_probability_drops_fraction(self):
        kernel, network, a, b = build_pair(loss=0.5)
        for _ in range(400):
            network.send("a", "b", "x")
        kernel.run()
        assert 120 < len(b.received) < 280

    def test_zero_loss_delivers_all(self):
        kernel, network, a, b = build_pair()
        for _ in range(100):
            network.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 100

    def test_jitter_reorders_but_delivers(self):
        kernel, network, a, b = build_pair(jitter=0.5)
        for index in range(50):
            network.send("a", "b", index)
        kernel.run()
        payloads = [m.payload for m in b.received]
        assert sorted(payloads) == list(range(50))
        assert payloads != list(range(50))  # some reordering with high jitter

    def test_broadcast(self):
        kernel = Kernel()
        network = Network(kernel)
        sinks = [Sink(kernel, f"s{i}") for i in range(3)]
        for sink in sinks:
            network.attach(sink, Region.US_WEST1)
        network.broadcast("s0", ["s1", "s2"], "ping")
        kernel.run()
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1

    def test_duplicate_attach_rejected(self):
        kernel, network, a, b = build_pair()
        with pytest.raises(ValueError):
            network.attach(a, Region.US_WEST1)

    def test_trace_hook_sees_every_send(self):
        kernel, network, a, b = build_pair()
        traced = []
        network.trace = traced.append
        network.send("a", "b", "x")
        network.send("a", "missing", "y")
        kernel.run()
        assert len(traced) == 2


class TestPartitions:
    def test_partition_blocks_cross_group_traffic(self):
        kernel, network, a, b = build_pair()
        network.partitions.partition([["a"], ["b"]])
        network.send("a", "b", "x")
        kernel.run()
        assert b.received == []

    def test_same_group_traffic_flows(self):
        kernel, network, a, b = build_pair()
        network.partitions.partition([["a", "b"]])
        network.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1

    def test_heal_restores_connectivity(self):
        kernel, network, a, b = build_pair()
        network.partitions.partition([["a"], ["b"]])
        network.partitions.heal()
        network.send("a", "b", "x")
        kernel.run()
        assert len(b.received) == 1

    def test_partition_cuts_in_flight_messages(self):
        kernel, network, a, b = build_pair()
        network.send("a", "b", "x")  # in flight for ~77 ms
        kernel.schedule(0.01, network.partitions.partition, [["a"], ["b"]])
        kernel.run()
        assert b.received == []

    def test_unlisted_endpoint_is_isolated(self):
        kernel, network, a, b = build_pair()
        network.partitions.partition([["a"]])
        network.send("a", "b", "x")
        network.send("b", "a", "y")
        kernel.run()
        assert b.received == []
        assert a.received == []

    def test_endpoint_in_two_groups_rejected(self):
        kernel, network, a, b = build_pair()
        with pytest.raises(ValueError):
            network.partitions.partition([["a"], ["a", "b"]])
