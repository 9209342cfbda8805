"""Tests for the hardened TCP write path: accounted drops, bounded
retry with backoff, and the per-peer circuit breaker.

These run on real localhost sockets with wall-clock timeouts tightened
to keep each scenario under a second.
"""

from __future__ import annotations

import asyncio

from repro.net.regions import Region
from repro.obs.bus import EventBus, RingSink
from repro.runtime.clock import LiveClock
from repro.runtime.tcp_transport import TcpTransport


class Endpoint:
    def __init__(self, name):
        self.name = name
        self.crashed = False
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def build(clock):
    clock.schedule(0.0, lambda: None)  # bind the clock to the running loop
    transport = TcpTransport(clock)
    # Tighten wall-clock tunables so failure paths resolve fast.
    transport.address_wait = 0.05
    transport.backoff_base = 0.01
    transport.backoff_cap = 0.05
    transport.circuit_cooldown = 0.15
    sink = RingSink()
    transport.obs = EventBus(clock, sink)
    a, b = Endpoint("a"), Endpoint("b")
    transport.attach(a, Region.US_WEST1)
    transport.attach(b, Region.US_WEST1)
    return transport, sink, a, b


def drop_reasons(sink):
    return [e["reason"] for e in sink.events() if e["type"] == "msg.drop"]


def circuit_states(sink):
    return [e["state"] for e in sink.events() if e["type"] == "fault.circuit"]


class TestConnectFailure:
    def test_connect_failed_drop_is_counted_and_traced(self):
        """A frame to a peer whose server never comes up must be
        accounted — drop counter plus a msg.drop event — not lost."""

        async def scenario():
            clock = LiveClock(seed=0)
            transport, sink, a, b = build(clock)
            # No transport.start(): b has no listening address.
            transport.send("a", "b", "doomed")
            await asyncio.sleep(0.2)
            await transport.aclose()
            return transport, sink

        transport, sink = asyncio.run(scenario())
        assert transport.messages_dropped == 1
        assert drop_reasons(sink) == ["connect-failed"]
        # One send, zero deliveries, one drop: accounting balances.
        assert transport.messages_sent == 1
        assert transport.messages_delivered == 0


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        async def scenario():
            clock = LiveClock(seed=0)
            transport, sink, a, b = build(clock)
            transport.circuit_cooldown = 10.0  # stay open for the test
            for _ in range(transport.circuit_threshold):
                transport.send("a", "b", "x")
                await asyncio.sleep(0.1)
            # Circuit now open: this frame is shed without the 50 ms
            # address wait.
            before = clock.now
            transport.send("a", "b", "fast-fail")
            await asyncio.sleep(0.02)
            elapsed = clock.now - before
            await transport.aclose()
            return transport, sink, elapsed

        transport, sink, elapsed = asyncio.run(scenario())
        assert circuit_states(sink) == ["open"]
        reasons = drop_reasons(sink)
        assert reasons.count("connect-failed") == transport.circuit_threshold
        assert reasons[-1] == "circuit-open"
        assert elapsed < transport.address_wait

    def test_half_open_probe_reopens_while_peer_still_dead(self):
        async def scenario():
            clock = LiveClock(seed=0)
            transport, sink, a, b = build(clock)
            for _ in range(transport.circuit_threshold):
                transport.send("a", "b", "x")
                await asyncio.sleep(0.1)
            await asyncio.sleep(transport.circuit_cooldown)
            transport.send("a", "b", "probe")  # half-open, still no server
            await asyncio.sleep(0.2)
            await transport.aclose()
            return transport, sink

        transport, sink = asyncio.run(scenario())
        assert circuit_states(sink) == ["open", "half-open", "open"]

    def test_closes_again_once_peer_comes_back(self):
        async def scenario():
            clock = LiveClock(seed=0)
            transport, sink, a, b = build(clock)
            for _ in range(transport.circuit_threshold):
                transport.send("a", "b", "x")
                await asyncio.sleep(0.1)
            await transport.start()  # b's server finally binds
            await asyncio.sleep(transport.circuit_cooldown)
            transport.send("a", "b", "recovered")
            await asyncio.sleep(0.3)
            await transport.aclose()
            return transport, sink, b

        transport, sink, b = asyncio.run(scenario())
        assert circuit_states(sink) == ["open", "half-open", "closed"]
        assert [m.payload for m in b.received] == ["recovered"]
        assert transport.messages_delivered == 1

    def test_healthy_path_never_touches_the_circuit(self):
        async def scenario():
            clock = LiveClock(seed=0)
            transport, sink, a, b = build(clock)
            await transport.start()
            for index in range(5):
                transport.send("a", "b", index)
            await asyncio.sleep(0.3)
            await transport.aclose()
            return transport, sink, b

        transport, sink, b = asyncio.run(scenario())
        assert len(b.received) == 5
        assert circuit_states(sink) == []
        assert transport.messages_dropped == 0
        assert transport.send_timeouts == 0


class TestCloseUnderTraffic:
    def test_aclose_terminates_while_senders_still_enqueue(self):
        """On Python 3.11 a writer cancelled inside
        ``wait_for(writer.drain())`` in the iteration the drain completes
        keeps running; ``aclose()`` used to wait on it forever.  The
        ``asyncio.wait`` below is the hard timeout the hang runs into
        (``wait_for`` would itself wait on the stuck close)."""

        async def scenario():
            clock = LiveClock(seed=0)
            transport, sink, a, b = build(clock)
            await transport.start()
            closed = False

            async def flood():
                while not closed:
                    for _ in range(20):
                        transport.send("a", "b", "x")
                        transport.send("b", "a", "y")
                    await asyncio.sleep(0)

            sender = asyncio.create_task(flood())
            await asyncio.sleep(0.05)  # both writers are mid-stream
            closer = asyncio.create_task(transport.aclose())
            finished, _ = await asyncio.wait({closer}, timeout=10)
            await asyncio.sleep(0.01)  # sends keep arriving after the close
            closed = True
            await sender
            await asyncio.sleep(0.2)  # a stuck writer idles, so teardown can cancel it
            return transport, sink, bool(finished)

        transport, sink, finished = asyncio.run(scenario())
        assert finished, "aclose() still pending after 10 s"
        # Nothing is left behind a writer, and late sends spawned none.
        assert transport._writers == {}
        assert all(queue.empty() for queue in transport._out_queues.values())
        assert "transport-closed" in drop_reasons(sink)
        assert transport.messages_delivered > 0
        # What is neither delivered nor dropped was on a socket at close.
        assert transport.messages_delivered + transport.messages_dropped <= (
            transport.messages_sent
        )


class TestBackoff:
    def test_backoff_is_exponential_jittered_and_capped(self):
        clock = LiveClock(seed=0)
        transport = TcpTransport(clock)
        transport.backoff_base = 0.05
        transport.backoff_cap = 0.2
        for attempt in range(8):
            ideal = min(transport.backoff_cap, transport.backoff_base * 2**attempt)
            for _ in range(20):
                delay = transport._backoff(attempt)
                assert 0.5 * ideal <= delay <= 1.5 * ideal
