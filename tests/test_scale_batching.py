"""Round batching: coalescing, transparent unpacking, and the pinned
batched-versus-unbatched parity run.
"""

import pytest

from repro.faults.transport import FaultyTransport
from repro.net.message import Message, next_msg_id
from repro.net.transport import EndpointProxy
from repro.scale import harness
from repro.scale.batching import BatchEnvelope, BatchingTransport, BatchItem
from repro.scale.harness import (
    ScaleConfig,
    build_scale_deployment,
    per_entity_committed,
    run_scale,
)
from repro.sim.kernel import Kernel


class RecordingInner:
    """Send-side stub: just records what reaches the wire."""

    def __init__(self):
        self.sent = []
        self.flow = None

    def send(self, src, dst, payload):
        self.sent.append((src, dst, payload))


class RecordingEndpoint:
    """Receive-side stub implementing the endpoint protocol."""

    def __init__(self, name="site-b"):
        self.name = name
        self.crashed = False
        self.messages = []

    def on_message(self, message):
        self.messages.append(message)


class TestCoalescing:
    def test_same_tick_same_link_sends_one_envelope(self):
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        transport = BatchingTransport(inner, kernel)
        transport.send("a", "b", "p1")
        transport.send("a", "b", "p2")
        transport.send("a", "b", "p3")
        assert inner.sent == []  # buffered until the flush event
        kernel.run(max_events=10)
        assert len(inner.sent) == 1
        src, dst, envelope = inner.sent[0]
        assert (src, dst) == ("a", "b")
        assert isinstance(envelope, BatchEnvelope)
        assert [item.payload for item in envelope.items] == ["p1", "p2", "p3"]
        assert transport.stats() == {
            "logical_sent": 3,
            "batches_sent": 1,
            "batched_payloads": 3,
            "passthrough_sent": 0,
            "batches_delivered": 0,
        }

    def test_single_payload_flushes_bare(self):
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        transport = BatchingTransport(inner, kernel)
        transport.send("a", "b", "solo")
        kernel.run(max_events=10)
        assert inner.sent == [("a", "b", "solo")]
        assert transport.passthrough_sent == 1
        assert transport.batches_sent == 0

    def test_links_buffer_independently(self):
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        transport = BatchingTransport(inner, kernel)
        transport.send("a", "b", "ab1")
        transport.send("a", "c", "ac1")
        transport.send("a", "b", "ab2")
        kernel.run(max_events=10)
        # a->b coalesced, a->c went bare: one envelope + one payload.
        assert len(inner.sent) == 2
        by_dst = {dst: payload for _, dst, payload in inner.sent}
        assert isinstance(by_dst["b"], BatchEnvelope)
        assert by_dst["c"] == "ac1"

    def test_later_ticks_start_new_batches(self):
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        transport = BatchingTransport(inner, kernel)
        transport.send("a", "b", "t0-1")
        transport.send("a", "b", "t0-2")
        kernel.run(max_events=10)
        kernel.schedule(1.0, transport.send, "a", "b", "t1-1")
        kernel.schedule(1.0, transport.send, "a", "b", "t1-2")
        kernel.run(max_events=10)
        assert transport.batches_sent == 2
        assert all(len(env.items) == 2 for _, _, env in inner.sent)

    def test_broadcast_fans_out_through_send(self):
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        transport = BatchingTransport(inner, kernel)
        transport.broadcast("a", ["b", "c"], "hello")
        kernel.run(max_events=10)
        assert transport.logical_sent == 2
        assert transport.passthrough_sent == 2


class TestUnpacking:
    @staticmethod
    def _envelope_message():
        """A wire Message carrying a two-item envelope ("p1", "p2")."""
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        sender = BatchingTransport(inner, kernel)
        sender.send("site-a", "site-b", "p1")
        sender.send("site-a", "site-b", "p2")
        kernel.run(max_events=10)
        _, _, envelope = inner.sent[0]
        return Message(
            src="site-a", dst="site-b", payload=envelope,
            sent_at=0.0, delivered_at=0.1, msg_id=999,
        )

    def test_envelope_unpacks_to_inner_messages_with_stored_ids(self):
        transport = BatchingTransport(RecordingInner(), Kernel(seed=0))
        message = self._envelope_message()
        endpoint = RecordingEndpoint()
        proxy = EndpointProxy(endpoint, transport)
        proxy.on_message(message)
        assert [m.payload for m in endpoint.messages] == ["p1", "p2"]
        first_ids = [m.msg_id for m in endpoint.messages]
        # Inner ids were minted at buffering time, not delivery time:
        # re-delivering the same envelope (a modeled retransmission)
        # reconstructs the *same* ids, which is what lets the receiver's
        # EnvelopeDedup absorb duplicated batches.
        proxy.on_message(message)
        assert [m.msg_id for m in endpoint.messages] == first_ids * 2
        assert transport.batches_delivered == 2

    def test_non_envelope_payloads_pass_through(self):
        kernel = Kernel(seed=0)
        transport = BatchingTransport(RecordingInner(), kernel)
        endpoint = RecordingEndpoint()
        proxy = EndpointProxy(endpoint, transport)
        bare = Message(src="a", dst="b", payload="plain", sent_at=0.0)
        proxy.on_message(bare)
        assert endpoint.messages == [bare]
        assert transport.batches_delivered == 0

    def test_unpack_stops_when_endpoint_crashes_mid_batch(self):
        transport = BatchingTransport(RecordingInner(), Kernel(seed=0))

        class CrashingEndpoint(RecordingEndpoint):
            def on_message(self, message):
                super().on_message(message)
                self.crashed = True

        endpoint = CrashingEndpoint()
        proxy = EndpointProxy(endpoint, transport)
        proxy.on_message(self._envelope_message())
        assert [m.payload for m in endpoint.messages] == ["p1"]


class PerLinkBatching(BatchingTransport):
    """The batcher as it was: one zero-delay flush event per link."""

    def __init__(self, inner, clock) -> None:
        super().__init__(inner, clock)
        self._scheduled: set[tuple[str, str]] = set()

    def send(self, src, dst, payload):
        self.logical_sent += 1
        key = (src, dst)
        self._buffers.setdefault(key, []).append(BatchItem(next_msg_id(), payload))
        if key not in self._scheduled:
            self._scheduled.add(key)
            self.clock.schedule(0.0, self._flush_link, key)

    def _flush_link(self, key):
        self._scheduled.discard(key)
        items = self._buffers.pop(key, None)
        if not items:
            return
        if len(items) == 1:
            self.passthrough_sent += 1
            self.inner.send(*key, items[0].payload)
            return
        self.batches_sent += 1
        self.batched_payloads += len(items)
        self.inner.send(*key, BatchEnvelope(tuple(items)))


def wire_view(log, base):
    """Inner sends as ``(src, dst, payload)`` with ids relative to
    ``base``, an envelope as the ``(msg_id, payload)`` pairs it carries."""
    view = []
    for src, dst, payload in log:
        if isinstance(payload, BatchEnvelope):
            payload = tuple((item.msg_id - base, item.payload) for item in payload.items)
        view.append((src, dst, payload))
    return view


class TestOneFlushPerInstant:
    """One flush event per instant sends exactly what per-link flush
    events sent, in the same order, with the same ids."""

    LINKS = [("a", "b"), ("b", "c"), ("c", "a")]

    def _drive(self, batcher_class):
        kernel = Kernel(seed=0)
        inner = RecordingInner()
        transport = batcher_class(inner, kernel)
        resent = []

        def record(src, dst, payload):
            inner.sent.append((src, dst, payload))
            # A send issued from inside the flush, onto the link being
            # flushed: it belongs to the next flush.
            if (src, dst) == ("b", "c") and len(resent) < 2:
                resent.append(payload)
                transport.send(src, dst, f"resend-{len(resent)}")

        inner.send = record

        def burst(tag, links):
            for index, (src, dst) in enumerate(links):
                transport.send(src, dst, f"{tag}-{index}")

        a_b, b_c, c_a = self.LINKS
        # Same-instant bursts across three links, from several events at
        # one timestamp and from events at distinct timestamps.
        kernel.schedule(1.0, burst, "t1a", [b_c, a_b, b_c, c_a, a_b])
        kernel.schedule(1.0, burst, "t1b", [c_a, a_b])
        kernel.schedule(2.0, burst, "t2", [a_b])
        kernel.schedule(2.5, burst, "t25", [c_a, c_a, b_c, b_c])
        kernel.schedule(2.5, burst, "t25b", [a_b, b_c])
        base = next_msg_id()
        kernel.run()
        return wire_view(inner.sent, base), transport.stats(), kernel.now

    def test_same_wire_sequence_as_per_link_flushing(self):
        ours = self._drive(BatchingTransport)
        theirs = self._drive(PerLinkBatching)
        assert ours == theirs
        sent, stats, _ = ours
        assert [payload for _, _, payload in sent if payload == "resend-1"]
        assert stats["batches_sent"] >= 4 and stats["passthrough_sent"] >= 2

    def test_same_wire_sequence_through_a_faulty_transport(self, monkeypatch):
        # A whole scale deployment over BatchingTransport(FaultyTransport(
        # Network)) with drops, duplicates and delays: the fault layer
        # sees the same envelopes in the same order either way, so the
        # run is the same run.
        monkeypatch.setattr(harness, "HOT_ENTITIES", 16)
        monkeypatch.setattr(harness, "PLACEMENT", "first")

        def run(batcher_class):
            monkeypatch.setattr(harness, "BatchingTransport", batcher_class)
            log, layers = [], []

            def wrap(inner):
                layer = FaultyTransport(inner, inner.kernel, seed=11)
                forward = layer.send

                def send(src, dst, payload):
                    log.append((src, dst, payload))
                    forward(src, dst, payload)

                layer.send = send
                layers.append(layer)
                return layer

            config = ScaleConfig(entities=50, regions=3, maximum=30, duration=5.0,
                                 rate=300.0, seed=5)
            deployment = build_scale_deployment(config, transport_wrap=wrap)
            layers[0].degrade([host.name for host in deployment.hosts], drop=0.05,
                              duplicate=0.05, delay=0.02, jitter=0.01)
            result = run_scale(config, deployment=deployment)
            return wire_view(log, 0), (
                result.committed, result.rejected, result.rounds_applied,
                result.wire_sent, result.wire_dropped, result.batching,
                result.violations, dict(layers[0].injected),
            )

        ours, theirs = run(BatchingTransport), run(PerLinkBatching)
        assert ours == theirs
        injected = ours[1][-1]
        assert len(ours[0]) > 1_000 and min(injected.values()) > 100


class TestBatchedRunParity:
    """Acceptance pin: batching changes the wire, never the outcome."""

    @pytest.fixture(autouse=True)
    def demand_equals_supply(self, monkeypatch):
        # All tokens start at region 0 ("first") and every driver
        # acquires up to exactly half the per-entity maximum, so global
        # demand equals supply and every queued acquire must eventually
        # commit.
        monkeypatch.setattr(harness, "ACQUIRE_FRACTION", 1.0)
        monkeypatch.setattr(harness, "PER_ENTITY_BUDGET", 15)
        monkeypatch.setattr(harness, "HOT_ENTITIES", 64)
        monkeypatch.setattr(harness, "PLACEMENT", "first")

    @staticmethod
    def _config(batching: bool) -> ScaleConfig:
        # Two regions: the majority quorum is *all* sites, so every
        # round pools the full cluster and redistribution outcomes are
        # independent of responder arrival order.
        return ScaleConfig(
            entities=300,
            regions=2,
            maximum=30,
            duration=10.0,
            rate=600.0,
            seed=7,
            batching=batching,
        )

    def test_batched_and_unbatched_outcomes_identical(self):
        batched, batched_dep = run_scale(
            self._config(True), keep_deployment=True
        )
        plain, plain_dep = run_scale(
            self._config(False), keep_deployment=True
        )
        # Both runs are clean under the strict conservation audit.
        assert batched.drained and plain.drained
        assert batched.violations == [] and plain.violations == []
        assert batched.audited == plain.audited == 300
        # Identical audited outcomes, per entity, not just in aggregate.
        batched_commits = list(per_entity_committed(batched_dep))
        plain_commits = list(per_entity_committed(plain_dep))
        assert batched_commits == plain_commits
        assert batched.committed == plain.committed
        assert batched.rejected == plain.rejected
        # And batching genuinely coalesced: fewer wire envelopes for the
        # same logical traffic.
        assert batched.batching is not None
        assert batched.batching["batches_sent"] > 0
        assert plain.batching is None
        assert batched.wire_sent < plain.wire_sent

    def test_redistribution_moves_tokens_to_demand(self):
        result = run_scale(self._config(True))
        # All tokens start at region 0, so region 1's commits require
        # redistribution rounds to have moved tokens — and with demand
        # equal to supply almost everything is served (a small tail
        # exhausts its bounded queue patience, max_round_waits).
        assert result.rounds_applied > 0
        assert result.queued_unresolved == 0
        assert result.committed > 10 * result.rejected


def test_scale_smoke_three_regions():
    result = run_scale(
        ScaleConfig(entities=50, regions=3, duration=5.0, rate=200.0, seed=3)
    )
    assert result.submitted > 0
    assert result.committed > 0
    assert result.drained
    assert result.violations == []
