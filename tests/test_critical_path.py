"""Tests for critical-path attribution (repro.obs.critical_path).

The acceptance bar from the tracing design: on a clean fixed-seed
trace, every sampled request's commit latency decomposes into named
phase/link segments with >= 95% coverage, and the analysis is a pure
function of the trace (same trace -> identical report).
"""

import pytest

from repro.harness import experiment
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs import RingSink, analyze_critical_paths, format_critical_path_report
from repro.workload.trace import TraceConfig


@pytest.fixture(scope="module")
def traced_events():
    sink = RingSink(capacity=200_000)
    config = ExperimentConfig(duration=30.0, seed=13, trace=TraceConfig(days=2.0))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "START_INTERVAL", 0)
        result = Experiment(config, trace_sink=sink).run()
    assert result.committed > 0
    return sink.events()


class TestAttribution:
    def test_coverage_meets_the_bar(self, traced_events):
        report = analyze_critical_paths(traced_events, max_requests=50)
        assert report.requests > 0
        assert report.coverage >= 0.95
        assert report.min_coverage >= 0.95

    def test_segments_partition_by_kind(self, traced_events):
        report = analyze_critical_paths(traced_events, max_requests=50)
        kinds = {segment.kind for segment in report.segments}
        assert kinds <= {"phase", "link"}
        assert any(segment.kind == "link" for segment in report.segments)
        # Segment seconds sum to at least the attributed time (named
        # phases + links; unattributed is also a segment).
        total_segments = sum(segment.seconds for segment in report.segments)
        assert total_segments == pytest.approx(report.total_seconds, rel=0.02)

    def test_deterministic_over_the_same_trace(self, traced_events):
        first = analyze_critical_paths(traced_events, max_requests=50)
        second = analyze_critical_paths(traced_events, max_requests=50)
        assert format_critical_path_report(first) == format_critical_path_report(
            second
        )
        assert [
            (segment.kind, segment.label, segment.seconds, segment.count)
            for segment in first.segments
        ] == [
            (segment.kind, segment.label, segment.seconds, segment.count)
            for segment in second.segments
        ]

    def test_max_requests_bounds_the_sample(self, traced_events):
        report = analyze_critical_paths(traced_events, max_requests=5)
        assert report.requests <= 5

    def test_outcomes_counted(self, traced_events):
        report = analyze_critical_paths(traced_events, max_requests=50)
        assert sum(report.outcomes.values()) == report.requests


class TestEdgeCases:
    def test_empty_trace(self):
        report = analyze_critical_paths([])
        assert report.requests == 0
        assert report.coverage == 1.0
        text = format_critical_path_report(report)
        assert "no completed request spans" in text

    def test_dropped_message_counts_against_coverage(self):
        events = [
            {"type": "span.begin", "span": "request", "trace_id": "req-1",
             "ts": 0.0, "node": "c1"},
            {"type": "msg.send", "trace_id": "req-1", "ts": 0.2, "msg_id": 1,
             "msg_type": "ClientRequest", "src_region": "a", "dst_region": "b",
             "dst": "m1"},
            # Never delivered: the tail is a timeout, not a named phase.
            {"type": "span.end", "span": "request", "trace_id": "req-1",
             "ts": 5.0, "dur": 5.0, "outcome": "failed"},
        ]
        report = analyze_critical_paths(events)
        assert report.requests == 1
        assert report.coverage < 0.95
        labels = {segment.label for segment in report.segments}
        assert "unattributed" in labels

    def test_report_footer_states_coverage(self, ):
        events = [
            {"type": "span.begin", "span": "request", "trace_id": "req-1",
             "ts": 0.0, "node": "c1"},
            {"type": "msg.send", "trace_id": "req-1", "ts": 0.1, "msg_id": 1,
             "msg_type": "ClientRequest", "src_region": "a", "dst_region": "b",
             "dst": "m1"},
            {"type": "msg.deliver", "trace_id": "req-1", "ts": 0.3, "msg_id": 1,
             "msg_type": "ClientRequest", "src_region": "a", "dst_region": "b",
             "dst": "m1"},
            {"type": "msg.send", "trace_id": "req-1", "ts": 0.4, "msg_id": 2,
             "msg_type": "ClientResponse", "src_region": "b", "dst_region": "a",
             "dst": "c1"},
            {"type": "msg.deliver", "trace_id": "req-1", "ts": 0.6, "msg_id": 2,
             "msg_type": "ClientResponse", "src_region": "b", "dst_region": "a",
             "dst": "c1"},
            {"type": "span.end", "span": "request", "trace_id": "req-1",
             "ts": 0.7, "dur": 0.7, "outcome": "granted"},
        ]
        report = analyze_critical_paths(events)
        assert report.coverage == pytest.approx(1.0)
        text = format_critical_path_report(report)
        assert "attributed 100.0%" in text
        assert "a -> b" in text
