"""Tests for the flow & resource observability plane.

Four layers, mirroring ``tests/test_demand.py`` for the demand plane:
unit tests of the tracker's wire/queue/batch accounting, a
property-based guarantee that the high watermark is exactly the maximum
observed depth (the figure backpressure analysis reads), end-to-end
checks that a flow-enabled traced run validates and replays to a
byte-identical offline report, and the backpressure paths (bounded TCP
out-queues, saturated scale mailboxes) dropping *accountedly*.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultyTransport
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.net.network import Network, NetworkConfig
from repro.net.regions import Region
from repro.obs import (
    EventBus,
    FlowTracker,
    ResourceProbe,
    RingSink,
    WIRE_HEADER_BYTES,
    entity_table_bytes,
    format_flow_report,
    track_flow,
    validate_events,
)
from repro.obs.registry import MetricsRegistry, TraceMetricsFeed, prometheus
from repro.scale.entity_table import COLUMNS, EntityTable
from repro.scale import harness as scale_harness
from repro.scale.harness import ScaleConfig, build_scale_deployment, run_scale
from repro.sim.kernel import Kernel
from repro.workload.trace import TraceConfig


class TestFlowTracker:
    def test_record_send_accumulates_by_type_and_link(self):
        tracker = FlowTracker()
        tracker.record_send("Ping", 100, 104, "us-west1", "us-east1")
        tracker.record_send("Ping", 200, 204, "us-west1", "us-east1")
        tracker.record_send("Pong", 50, 54, "us-east1", "us-west1")
        assert tracker.total_frames == 3
        assert tracker.total_payload_bytes == 350
        assert tracker.total_frame_bytes == 362
        rows = tracker.type_rows()
        # Heaviest first.
        assert [row["msg_type"] for row in rows] == ["Ping", "Pong"]
        assert rows[0]["mean_frame_bytes"] == 154.0
        links = tracker.link_rows()
        assert links[0]["src_region"] == "us-west1"
        assert links[0]["frame_bytes"] == 308

    def test_queue_gauge_semantics(self):
        tracker = FlowTracker()
        gauge = tracker.queue("q")
        assert tracker.queue("q") is gauge  # get-or-create caches
        gauge.enqueue(1)
        gauge.enqueue(2)
        gauge.dequeue(1)
        gauge.enqueue(2)
        gauge.drain(2, 0)
        gauge.drop()
        row = tracker.queue_rows()[0]
        assert row == {
            "queue": "q", "high": 2, "depth": 0,
            "enqueued": 3, "dequeued": 3, "dropped": 1,
        }

    def test_batch_ratios(self):
        tracker = FlowTracker()
        tracker.record_batch(4, envelope_bytes=90, inner_bytes=100)
        tracker.record_batch(2, envelope_bytes=60, inner_bytes=50)
        tracker.record_passthrough()
        batch = tracker.batch
        assert batch.coalescing_ratio == 3.0
        assert batch.overhead_ratio == 1.0
        snapshot = tracker.snapshot()
        assert snapshot["batch"]["passthrough"] == 1
        assert snapshot["batch"]["coalescing_ratio"] == 3.0

    def test_headline_shape(self):
        tracker = FlowTracker()
        tracker.record_send("Ping", 100, 104)
        tracker.record_batch(3, envelope_bytes=90, inner_bytes=120)
        headline = tracker.headline()
        assert headline["wire_frames"] == 1
        assert headline["wire_bytes"] == 104
        assert headline["bytes_per_frame"] == {"Ping": 104.0}
        assert headline["coalescing_ratio"] == 3.0
        assert headline["overhead_ratio"] == 0.75

    def test_empty_tracker_renders(self):
        tracker = FlowTracker()
        assert "0 frames" in format_flow_report(tracker.snapshot())
        assert list(tracker.families()) == []


#: Random interleavings: enqueue, dequeue, batch drain, passive observe.
queue_ops = st.lists(
    st.one_of(
        st.just("enq"),
        st.just("deq"),
        st.integers(1, 5).map(lambda n: ("drain", n)),
        st.just("observe"),
    ),
    max_size=200,
)


class TestHighWatermarkProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=queue_ops)
    def test_high_watermark_is_max_observed_depth(self, ops):
        tracker = FlowTracker()
        gauge = tracker.queue("q")
        depth = 0
        peak = 0
        for op in ops:
            if op == "enq":
                depth += 1
                gauge.enqueue(depth)
            elif op == "deq":
                if depth == 0:
                    continue
                depth -= 1
                gauge.dequeue(depth)
            elif op == "observe":
                gauge.observe(depth)
            else:
                _, count = op
                count = min(count, depth)
                if count == 0:
                    continue
                depth -= count
                gauge.drain(count, depth)
            peak = max(peak, depth)
        assert gauge.high == peak
        assert gauge.depth == depth
        assert gauge.enqueued == gauge.dequeued + depth


def quick_config(**overrides):
    defaults = dict(
        duration=20.0,
        seed=5,
        flow=True,
        trace=TraceConfig(days=2.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def traced_run(config):
    sink = RingSink()
    experiment = Experiment(config, trace_sink=sink)
    experiment.run()
    return experiment, sink.events()


@pytest.mark.usefixtures("quick_window")
class TestEndToEnd:
    def test_flow_events_validate_and_replay_exactly(self):
        experiment, events = traced_run(quick_config())
        assert validate_events(events) == []
        live = experiment.instruments.flow
        assert live is not None and live.total_frames > 0
        by_type = {event["type"] for event in events}
        assert {"flow.link", "flow.type", "flow.queue"} <= by_type
        # A flow-enabled run stamps byte counts on every msg.send.
        sends = [event for event in events if event["type"] == "msg.send"]
        assert sends and all(
            event["frame_bytes"] == event["bytes"] + WIRE_HEADER_BYTES
            for event in sends
        )
        # Offline replay reconstructs exactly the live tracker's state.
        replayed = track_flow(iter(events))
        assert replayed.snapshot() == live.snapshot()
        assert format_flow_report(replayed.snapshot()) == format_flow_report(
            live.snapshot()
        )

    def test_same_seed_report_is_byte_identical(self):
        reports = [
            format_flow_report(
                track_flow(iter(traced_run(quick_config())[1])).snapshot()
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert "wire bytes by message type" in reports[0]
        assert "queue watermarks" in reports[0]

    def test_flow_does_not_perturb_the_run(self):
        # The determinism contract: byte accounting observes, never
        # perturbs — the same seed commits the same requests with flow
        # on or off.
        on = Experiment(quick_config())
        off = Experiment(quick_config(flow=False))
        on_result = on.run()
        off_result = off.run()
        assert off.instruments.flow is None
        assert on_result.committed == off_result.committed
        assert on_result.rejected == off_result.rejected
        assert on_result.flow_snapshot is not None
        assert off_result.flow_snapshot is None

    def test_rollup_events_only_from_the_bus_owner(self):
        # FlowTracker.rollup is deterministic and bounded: one flow.link
        # per pair, one flow.type per type, one flow.queue per gauge.
        tracker = FlowTracker()
        tracker.record_send("Ping", 10, 14, "a", "b")
        tracker.record_send("Pong", 10, 14, "b", "a")
        tracker.queue("q").enqueue(1)
        tracker.record_memory("collect", 12345)  # must NOT be emitted
        kernel = Kernel(seed=1)
        sink = RingSink()
        bus = EventBus(kernel, sink)
        kernel.schedule(1.0, lambda: tracker.rollup(bus))
        kernel.run(until=2.0)
        events = sink.events()
        assert validate_events(events) == []
        types = [event["type"] for event in events]
        assert types.count("flow.link") == 2
        assert types.count("flow.type") == 2
        assert types.count("flow.queue") == 1
        assert not any(t.startswith("flow.mem") for t in types)

    def test_prometheus_families_are_disjoint_from_the_feed(self):
        # Wire bytes and queue drops have one owner: the feed sees the
        # byte stamps and the per-drop events and derives no family from
        # them, so a scrape that renders both never repeats a name.
        registry = MetricsRegistry()
        feed = TraceMetricsFeed(registry)
        feed({"type": "msg.send", "msg_type": "Ping", "bytes": 10,
              "frame_bytes": 14, "ts": 0.0})
        feed({"type": "flow.backpressure", "queue": "q", "depth": 1, "ts": 0.0})
        tracker = FlowTracker()
        tracker.record_send("Ping", 10, 14, "a", "b")
        tracker.queue("q").enqueue(1)
        tracker.record_batch(2, envelope_bytes=20, inner_bytes=25)

        feed_families = {family[0] for family in registry.families()}
        flow_families = {family[0] for family in tracker.families()}
        assert len(flow_families) == 10
        assert all(name.startswith("repro_flow_") for name in flow_families)
        assert not any(name.startswith("repro_flow_") for name in feed_families)
        text = prometheus([*registry.families(), *tracker.families()])
        assert 'repro_flow_type_bytes_total{msg_type="Ping"} 14' in text
        assert "repro_flow_batch_inner_total 2" in text


class TestTcpBackpressure:
    def test_full_out_queue_drops_accountedly(self):
        from repro.obs.bus import EventBus as Bus
        from repro.runtime.clock import LiveClock
        from repro.runtime.tcp_transport import TcpTransport

        async def scenario():
            clock = LiveClock(seed=0)
            clock.schedule(0.0, lambda: None)
            transport = TcpTransport(clock)
            transport.max_out_queue = 1
            sink = RingSink()
            transport.obs = Bus(clock, sink)
            transport.flow = FlowTracker()

            class Endpoint:
                def __init__(self, name):
                    self.name = name
                    self.crashed = False

                def on_message(self, message):
                    pass

            transport.attach(Endpoint("a"), Region.US_WEST1)
            transport.attach(Endpoint("b"), Region.US_WEST1)
            # No transport.start(): the writer task blocks connecting,
            # and the sends below run synchronously, so the queue fills
            # to the cap and overflows deterministically.
            for _ in range(3):
                transport.send("a", "b", "payload")
            await transport.aclose()
            return transport, sink

        transport, sink = asyncio.run(scenario())
        assert transport.backpressure_drops == 2
        gauge = transport.flow.queue("tcp.out.b")
        assert gauge.dropped == 2
        assert gauge.high == 1
        events = sink.events()
        assert validate_events(events) == []
        drops = [e for e in events if e["type"] == "flow.backpressure"]
        assert len(drops) == 2
        assert all(e["queue"] == "tcp.out.b" for e in drops)
        # Offline replay folds the per-drop events into the same count.
        replayed = track_flow(iter(events))
        assert replayed.queue("tcp.out.b").dropped == 2


class TestScaleMailboxSaturation:
    def test_saturated_mailbox_drops_and_balances(self, monkeypatch):
        # All tokens at region 0 and a one-slot queue: the other
        # regions' acquires park behind redistributions and overflow.
        monkeypatch.setattr(scale_harness, "HOT_ENTITIES", 12)
        monkeypatch.setattr(scale_harness, "PLACEMENT", "first")
        config = ScaleConfig(
            entities=40,
            regions=3,
            maximum=30,
            duration=10.0,
            rate=400.0,
            seed=5,
            flow=True,
        )
        deployment = build_scale_deployment(config)
        for host in deployment.hosts:
            host.max_queue = 1
        result = run_scale(config, deployment=deployment)
        assert result.flow is not None
        mailboxes = [
            row for row in result.flow["queues"]
            if row["queue"].startswith("scale.mailbox.")
        ]
        assert len(mailboxes) == 3
        assert any(row["dropped"] > 0 for row in mailboxes)
        assert any(row["high"] > 0 for row in mailboxes)
        # Every queued request is accounted: still parked or drained.
        for row in mailboxes:
            assert row["enqueued"] == row["dequeued"] + row["depth"]
        # Exact columnar accounting rides the snapshot.
        per_host = result.flow["entity_table"]
        assert set(per_host) == {host.name for host in deployment.hosts}
        for host in deployment.hosts:
            accounting = per_host[host.name]
            assert accounting["rows"] == len(host.table)
            assert accounting["columns_bytes"] == sum(
                accounting["columns"].values()
            )


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class TestAccountedBytes:
    """The bytes the flow plane accounts on the two sim paths that frame:
    every send on the core transport, and the scale batching layer's
    envelope-versus-bare efficiency probe.  Recorded at ``fb8065d``,
    before the codec wrote JSON text directly; a codec change that moves
    one byte on these paths moves these numbers."""

    def test_core_run_under_drops_and_duplicates(self):
        kernel = Kernel(seed=3)
        network = FaultyTransport(Network(kernel, NetworkConfig()), kernel, seed=3)
        experiment = Experiment(
            ExperimentConfig(system="samya-majority", seed=3, duration=60, flow=True),
            kernel=kernel,
            network=network,
        )
        network.degrade(
            [server.name for server in experiment.servers], drop=0.05, duplicate=0.02
        )
        experiment.start()
        kernel.run(until=75)
        flow = experiment.collect().flow_snapshot
        assert dict(network.injected) == {"duplicate": 74, "nemesis-drop": 205}
        assert (flow["frames"], flow["payload_bytes"], flow["frame_bytes"]) == (
            3557, 1555071, 1569299,
        )
        assert _digest(flow) == (
            "01bee4fbc414c20bd8f30906a733bd4946ac565525cea7285dded527eba620b4"
        )

    def test_scale_run_with_batching(self):
        result = run_scale(
            ScaleConfig(
                entities=1000, duration=2, rate=1000, batching=True, flow=True, seed=3
            )
        )
        assert result.batching == {
            "batched_payloads": 2592, "batches_delivered": 972, "batches_sent": 972,
            "logical_sent": 5432, "passthrough_sent": 2840,
        }
        wire = {
            key: result.flow[key]
            for key in ("frames", "payload_bytes", "frame_bytes", "types", "links", "batch")
        }
        assert wire["batch"] == {
            "coalescing_ratio": 2.667, "envelope_bytes": 1707234, "envelopes": 972,
            "inner": 2592, "inner_bytes": 1829678, "overhead_ratio": 0.9331,
            "passthrough": 2840,
        }
        assert (wire["frames"], wire["payload_bytes"], wire["frame_bytes"]) == (
            3812, 4118622, 4133870,
        )
        assert _digest(wire) == (
            "5fd1a63eed97c6a26134c1df67f6014ea1e0729a6dc12d7f70b36d7fa1de2a6d"
        )


class TestResourceAccounting:
    def test_entity_table_bytes_is_exact(self):
        table = EntityTable()
        for i in range(17):
            table.add(f"e{i}", i)
        accounting = entity_table_bytes(table)
        assert accounting["rows"] == 17
        itemsize = table.tokens_left.itemsize
        assert set(accounting["columns"]) == set(COLUMNS)
        for name in COLUMNS:
            assert accounting["columns"][name] == 17 * itemsize
        assert accounting["columns_bytes"] == len(COLUMNS) * 17 * itemsize
        assert accounting["ids_bytes"] > 0
        assert accounting["index_bytes"] > 0

    def test_resource_probe_samples_into_the_tracker(self):
        tracker = FlowTracker()
        probe = ResourceProbe(tracker)
        sample = probe.sample("collect", ts=1.5)
        assert sample["rss_bytes"] > 0  # /proc/self/statm on Linux
        assert sample["peak_rss_bytes"] >= sample["rss_bytes"] // 2
        assert tracker.memory[0]["phase"] == "collect"
        assert tracker.memory[0]["ts"] == 1.5
        # Machine-dependent samples are snapshot-only, never in reports.
        assert "memory" in tracker.snapshot()
        assert "rss" not in format_flow_report(tracker.snapshot())
