"""Tests for the telemetry layer: bus, sinks, schema, traced runs.

The determinism tests compare event *counts and type histograms* across
runs rather than raw streams: request/read ids come from process-global
counters, so a second run in the same process numbers its trace ids
differently while emitting the identical event sequence shape.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.harness.experiment import Experiment, ExperimentConfig
from repro.metrics.latency import percentile
from repro.obs import (
    SCHEMA,
    EventBus,
    JsonlSink,
    RingSink,
    format_trace_summary,
    read_trace,
    trace_id_of,
    validate_event,
    validate_events,
)
from repro.sim.kernel import Kernel
from repro.workload.trace import TraceConfig


# quick_config runs load from trace interval 0 and audit every 5 s.
pytestmark = pytest.mark.usefixtures("quick_window")


def quick_config(**overrides):
    defaults = dict(
        duration=20.0,
        seed=2,
        trace=TraceConfig(days=2.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def traced_run(config):
    sink = RingSink()
    experiment = Experiment(config, trace_sink=sink)
    result = experiment.run()
    return result, sink.events()


class TestEventBus:
    def test_emit_stamps_clock_and_type(self):
        kernel = Kernel(seed=1)
        sink = RingSink()
        bus = EventBus(kernel, sink)
        kernel.schedule(2.5, lambda: bus.emit("epoch.close", node="s1", demand=3.0))
        kernel.run(until=5.0)
        (event,) = sink.events()
        assert event["ts"] == pytest.approx(2.5)
        assert event["type"] == "epoch.close"
        assert event["node"] == "s1"
        assert event["demand"] == 3.0

    def test_span_duration_against_clock(self):
        kernel = Kernel(seed=1)
        sink = RingSink()
        bus = EventBus(kernel, sink)
        span_holder = {}
        kernel.schedule(1.0, lambda: span_holder.setdefault(
            "id", bus.span_begin("request", node="c1", trace_id="req-1")))
        kernel.schedule(4.0, lambda: bus.span_end(span_holder["id"], outcome="granted"))
        kernel.run(until=5.0)
        begin, end = sink.events()
        assert begin["type"] == "span.begin"
        assert end["type"] == "span.end"
        assert end["dur"] == pytest.approx(3.0)
        assert end["outcome"] == "granted"
        assert end["trace_id"] == "req-1"
        assert bus.open_spans == 0

    def test_span_end_unknown_id_is_noop(self):
        bus = EventBus(Kernel(seed=1), sink := RingSink())
        bus.span_end(999)
        assert len(sink) == 0

    def test_open_spans_counts_unfinished(self):
        bus = EventBus(Kernel(seed=1), RingSink())
        bus.span_begin("avantan.round", node="s1")
        assert bus.open_spans == 1

    def test_span_ids_deterministic(self):
        bus = EventBus(Kernel(seed=1), RingSink())
        assert bus.span_begin("a") == 1
        assert bus.span_begin("b") == 2

    def test_ring_sink_bounded(self):
        sink = RingSink(capacity=3)
        for i in range(5):
            sink.write({"i": i})
        assert [event["i"] for event in sink.events()] == [2, 3, 4]


class TestTraceIdOf:
    def test_request_payload(self):
        payload = SimpleNamespace(request=SimpleNamespace(request_id=4))
        assert trace_id_of(payload) == "req-4"

    def test_response_payload(self):
        payload = SimpleNamespace(response=SimpleNamespace(request_id=9))
        assert trace_id_of(payload) == "req-9"

    def test_read_payload(self):
        assert trace_id_of(SimpleNamespace(read_id=7)) == "read-7"

    def test_avantan_ballot(self):
        ballot = SimpleNamespace(num=2, site_id="us-east")
        assert trace_id_of(SimpleNamespace(ballot=ballot)) == "rnd-2.us-east"

    def test_paxos_tuple_ballot(self):
        assert trace_id_of(SimpleNamespace(ballot=(3, "n1"))) == "rnd-3.n1"

    def test_raft_term(self):
        assert trace_id_of(SimpleNamespace(term=5)) == "term-5"

    def test_no_identity(self):
        assert trace_id_of(object()) is None


class TestSchema:
    def test_valid_event(self):
        event = {"ts": 1.0, "type": "msg.send", "node": "",
                 "src": "a", "dst": "b", "msg_type": "Ping", "msg_id": 1}
        assert validate_event(event) == []

    def test_missing_required_field(self):
        event = {"ts": 1.0, "type": "msg.drop", "node": "",
                 "src": "a", "dst": "b", "msg_type": "Ping", "msg_id": 1}
        assert any("reason" in error for error in validate_event(event))

    def test_unknown_type(self):
        errors = validate_event({"ts": 0.0, "type": "nope", "node": ""})
        assert any("unknown event type" in error for error in errors)

    def test_non_scalar_extra_rejected(self):
        event = {"ts": 1.0, "type": "request.shed", "node": "c1",
                 "kind": "acquire", "payload": {"nested": True}}
        assert any("not a JSON scalar" in error for error in validate_event(event))

    def test_not_a_dict(self):
        assert validate_event([1, 2]) != []

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        bus = EventBus(Kernel(seed=1), sink)
        bus.emit("request.shed", node="c1", kind="acquire", amount=2)
        span = bus.span_begin("request", node="c1", trace_id="req-1")
        bus.span_end(span, outcome="granted")
        bus.close()
        events = read_trace(path)
        assert len(events) == 3
        assert validate_events(events) == []
        assert events[2]["outcome"] == "granted"

    def test_read_trace_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            read_trace(path)


class TestTracedExperiment:
    def test_trace_opens_with_meta_and_closes_with_end(self):
        result, events = traced_run(quick_config())
        assert events[0]["type"] == "run.meta"
        assert events[0]["schema"] == SCHEMA
        assert events[0]["substrate"] == "sim"
        assert events[0]["seed"] == 2
        assert events[-1]["type"] == "run.end"
        assert events[-1]["committed"] == result.committed

    def test_every_event_validates(self):
        _, events = traced_run(quick_config())
        assert validate_events(events) == []

    def test_request_spans_match_outcomes(self):
        result, events = traced_run(quick_config())
        outcomes = Counter(
            event["outcome"] for event in events
            if event["type"] == "span.end" and event["span"] == "request"
        )
        assert outcomes["granted"] == result.committed
        assert outcomes["rejected"] == result.rejected

    def test_message_events_match_network_counters(self):
        sink = RingSink()
        experiment = Experiment(quick_config(), trace_sink=sink)
        experiment.run()
        events = sink.events()
        sent = Counter(e["msg_type"] for e in events if e["type"] == "msg.send")
        delivered = Counter(e["msg_type"] for e in events if e["type"] == "msg.deliver")
        assert sent == experiment.network.sent_by_type
        assert delivered == experiment.network.delivered_by_type

    def test_avantan_round_spans_present(self):
        _, events = traced_run(quick_config(duration=40.0))
        spans = {e["span"] for e in events if e["type"] == "span.begin"}
        assert "avantan.round" in spans
        assert any(span.startswith("avantan.phase.") for span in spans)

    def test_same_seed_runs_emit_identical_shapes(self):
        _, first = traced_run(quick_config())
        _, second = traced_run(quick_config())
        assert len(first) == len(second)
        assert Counter(e["type"] for e in first) == Counter(e["type"] for e in second)
        # Ordering too: the type sequence is the run's causal skeleton.
        assert [e["type"] for e in first] == [e["type"] for e in second]

    def test_tracing_does_not_change_results(self):
        baseline = Experiment(quick_config()).run()
        traced, _ = traced_run(quick_config())
        assert traced.committed == baseline.committed
        assert traced.rejected == baseline.rejected
        assert traced.tokens_left_total == baseline.tokens_left_total
        assert traced.latency == baseline.latency

    def test_disabled_tracing_allocates_no_bus(self):
        experiment = Experiment(quick_config())
        assert experiment.instruments.bus is None
        assert experiment.kernel.obs is None
        assert experiment.network.obs is None

    def test_baseline_consensus_commits_traced(self):
        _, events = traced_run(quick_config(system="multipaxsys", duration=30.0))
        commits = [e for e in events if e["type"] == "consensus.commit"]
        assert commits
        assert all(isinstance(e["index"], int) for e in commits)

    def test_summary_renders_tables(self):
        _, events = traced_run(quick_config())
        text = format_trace_summary(events, source="ring")
        assert "per-phase latency" in text
        assert "messages by payload type" in text
        assert "request outcomes" in text

    def test_trace_path_writes_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        Experiment(quick_config(trace_path=str(path))).run()
        events = read_trace(path)
        assert events[0]["type"] == "run.meta"
        assert validate_events(events) == []

    def test_span_latency_summary_consistent(self):
        """Request-span durations reproduce the metrics hub's percentiles."""
        result, events = traced_run(quick_config())
        durations = [
            e["dur"] for e in events
            if e["type"] == "span.end" and e["span"] == "request"
            and e["outcome"] == "granted"
        ]
        assert durations
        # Same population modulo the hub's warmup window, so the medians
        # agree to within a millisecond.
        assert percentile(durations, 50) == pytest.approx(
            result.latency.p50, abs=1e-3
        )
