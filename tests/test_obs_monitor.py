"""Tests for the active-monitoring layer: auditor, registry, exposition.

The corruption tests are the point of the auditor: take a *real* traced
run, tamper with the stream the way a bug (or a forged trace) would,
and assert the audit catches it.  The golden tests pin the other side:
fixed-seed runs of all protocol variants audit clean, and auditing
changes no measured number.
"""

import asyncio
import gzip
import json
import urllib.request

import pytest

from repro.harness.experiment import Experiment, ExperimentConfig
from repro.metrics.invariants import ConservationChecker, InvariantViolation
from repro.net.regions import Region
from repro.faults.schedule import RegionFault
from repro.obs import (
    EventBus,
    JsonlSink,
    RingSink,
    audit_events,
    feed_registry,
    format_audit_report,
    read_trace,
)
from repro.obs.exposition import CONTENT_TYPE, MetricsServer
from repro.obs.registry import OVERFLOW_LABEL, Counter, MetricsRegistry, prometheus
from repro.obs.summary import TraceSummaryBuilder
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


HEADER = [
    {"ts": 0.0, "type": "run.meta", "schema": "repro-trace/1", "substrate": "sim",
     "system": "samya-majority", "seed": 1, "duration": 10.0, "maximum": 100,
     "predictor": "none", "reallocator": "greedy"},
]


class TestAuditorStructural:
    def test_clean_synthetic_stream(self):
        auditor = audit_events(HEADER + [
            {"ts": 1.0, "type": "span.begin", "span": "request", "span_id": 1,
             "node": "c1"},
            {"ts": 2.0, "type": "span.end", "span": "request", "span_id": 1,
             "node": "c1", "dur": 1.0, "outcome": "granted"},
        ])
        assert auditor.ok
        assert auditor.events_seen == 3

    def test_clock_regression_flagged(self):
        auditor = audit_events(HEADER + [
            {"ts": 5.0, "type": "epoch.close", "node": "s1", "demand": 1.0},
            {"ts": 4.0, "type": "epoch.close", "node": "s1", "demand": 1.0},
        ])
        assert [v.invariant for v in auditor.violations] == ["clock-monotonic"]

    def test_missing_meta_flagged(self):
        auditor = audit_events(
            [{"ts": 0.0, "type": "epoch.close", "node": "s1", "demand": 1.0}]
        )
        assert [v.invariant for v in auditor.violations] == ["meta-first"]

    def test_duplicate_span_open_and_orphan_close(self):
        auditor = audit_events(HEADER + [
            {"ts": 1.0, "type": "span.begin", "span": "request", "span_id": 1,
             "node": "c1"},
            {"ts": 1.5, "type": "span.begin", "span": "request", "span_id": 1,
             "node": "c1"},
            {"ts": 2.0, "type": "span.end", "span": "request", "span_id": 9,
             "node": "c1", "dur": 1.0},
        ])
        assert [v.invariant for v in auditor.violations] == [
            "span-open-close", "span-open-close",
        ]

    def test_open_span_at_end_is_legal(self):
        auditor = audit_events(HEADER + [
            {"ts": 1.0, "type": "span.begin", "span": "request", "span_id": 1,
             "node": "c1"},
        ])
        assert auditor.ok
        assert "1 span(s) left open" in auditor.summary()

    def test_untraced_message_flagged(self):
        auditor = audit_events(HEADER + [
            {"ts": 1.0, "type": "msg.send", "msg_type": "TokenRequest",
             "src": "a", "dst": "b", "src_region": "us-east1",
             "dst_region": "us-west1"},
        ])
        assert [v.invariant for v in auditor.violations] == ["untraced-message"]

    def test_delivery_without_send_flagged(self):
        auditor = audit_events(HEADER + [
            {"ts": 1.0, "type": "msg.deliver", "msg_type": "TokenRequest",
             "src": "a", "dst": "b", "src_region": "us-east1",
             "dst_region": "us-west1", "latency": 0.01, "trace_id": "req:1"},
        ])
        assert [v.invariant for v in auditor.violations] == ["message-accounting"]

    def test_conservation_arithmetic_reverified(self):
        auditor = audit_events(HEADER + [
            {"ts": 5.0, "type": "invariant.check", "settled": 60,
             "outstanding": 30, "transit": 0, "maximum": 100},
        ])
        assert [v.invariant for v in auditor.violations] == ["conservation"]
        assert auditor.checks_verified == 1

    def test_reported_violation_surfaced(self):
        auditor = audit_events(HEADER + [
            {"ts": 5.0, "type": "invariant.violation", "invariant": "agreement",
             "detail": "sites disagree", "value_id": "v1"},
        ])
        assert [v.invariant for v in auditor.violations] == ["reported-violation"]

    def test_negative_tokens_flagged(self):
        auditor = audit_events(HEADER + [
            {"ts": 1.0, "type": "site.serve", "node": "s1", "amount": 5,
             "tokens_left": -3, "trace_id": "req:1"},
        ])
        assert [v.invariant for v in auditor.violations] == ["negative-tokens"]

    def test_violation_cap_keeps_counting(self):
        events = list(HEADER)
        for i in range(10):
            events.append(
                {"ts": float(i + 1), "type": "site.serve", "node": "s1",
                 "amount": 1, "tokens_left": -1, "trace_id": f"req:{i}"}
            )
        auditor = audit_events(events)
        auditor.max_recorded = 3  # applied before observe in real use
        assert auditor.violation_count == 10
        report = format_audit_report(auditor)
        assert "10 violation(s)" in report


class TestAuditorOnRealTraces:
    """Corrupt a genuine trace and the audit must notice."""

    def _events(self, **overrides):
        _, events = traced_run(quick_config(**overrides))
        return events

    def test_golden_runs_audit_clean(self):
        for system in ("samya-majority", "samya-star", "multipaxsys"):
            auditor = audit_events(self._events(system=system))
            assert auditor.ok, f"{system}: {format_audit_report(auditor)}"
            assert auditor.checks_verified > 0 or system == "multipaxsys"

    def test_dropped_span_close_detected(self):
        events = self._events()
        closes = [e for e in events if e["type"] == "span.end"]
        victim = closes[len(closes) // 2]
        # A dropped close plus a *reused* id: the second open of the
        # victim's span id must now collide.
        corrupted = [e for e in events if e is not victim]
        corrupted.append(
            {"ts": events[-1]["ts"], "type": "span.end", "span": "not-a-span",
             "span_id": victim["span_id"], "node": "x"}
        )
        auditor = audit_events(corrupted)
        assert not auditor.ok
        assert any(v.invariant == "span-open-close" for v in auditor.violations)

    def test_forged_conservation_leak_detected(self):
        events = self._events()
        checks = [e for e in events if e["type"] == "invariant.check"]
        assert checks, "traced run must carry conservation checks"
        forged = []
        for event in events:
            if event is checks[-1]:
                event = dict(event, settled=event["settled"] - 7)
            forged.append(event)
        auditor = audit_events(forged)
        assert any(v.invariant == "conservation" for v in auditor.violations)

    def test_audited_run_matches_unaudited(self):
        plain = Experiment(quick_config()).run()
        audited = Experiment(quick_config(audit=True, metrics=True)).run()
        assert audited.audit_violations == []
        assert (plain.committed, plain.rejected, plain.failed) == (
            audited.committed, audited.rejected, audited.failed
        )
        assert audited.metrics_snapshot  # registry rode along

    def test_online_auditor_subscribed_as_tap(self):
        experiment = Experiment(quick_config(audit=True))
        result = experiment.run()
        assert experiment.instruments.auditor is not None
        assert experiment.instruments.auditor.events_seen > 0
        assert result.audit_violations == []


class TestCheckerReporting:
    """ConservationChecker: raise without a bus, emit with one."""

    def test_without_bus_raises(self):
        checker = ConservationChecker(100)
        with pytest.raises(InvariantViolation):
            checker._violation("conservation", "boom")

    def test_with_bus_emits_event(self):
        kernel = Kernel(seed=1)
        sink = RingSink()
        checker = ConservationChecker(100)
        checker.obs = EventBus(kernel, sink)
        checker._violation("conservation", "boom", value_id="v9")
        assert checker.violations == 1
        (event,) = sink.events()
        assert event["type"] == "invariant.violation"
        assert event["invariant"] == "conservation"
        assert event["value_id"] == "v9"

    def test_traced_unaudited_violation_fails_collect(self):
        experiment = Experiment(quick_config(trace_path=None, metrics=True))
        assert experiment.checker is not None and experiment.instruments.bus is not None
        experiment.start()
        experiment.kernel.run(until=experiment.config.duration)
        experiment.checker._violation("conservation", "injected leak")
        with pytest.raises(InvariantViolation):
            experiment.collect()


class TestRegistry:
    def test_feed_counts_and_snapshot(self):
        registry = feed_registry(HEADER + [
            {"ts": 1.0, "type": "msg.send", "msg_type": "TokenRequest",
             "src": "a", "dst": "b", "src_region": "us-east1",
             "dst_region": "us-west1", "trace_id": "req:1"},
            {"ts": 1.1, "type": "msg.deliver", "msg_type": "TokenRequest",
             "src": "a", "dst": "b", "src_region": "us-east1",
             "dst_region": "us-west1", "latency": 0.1, "trace_id": "req:1"},
            {"ts": 2.0, "type": "span.end", "span": "request", "span_id": 1,
             "node": "c1", "dur": 0.004, "outcome": "granted"},
            {"ts": 3.0, "type": "fault.crash", "targets": "s1,c1"},
            {"ts": 4.0, "type": "invariant.check", "settled": 70,
             "outstanding": 30, "maximum": 100},
        ])
        snap = registry.snapshot()
        assert snap['repro_messages_total{event="send",msg_type="TokenRequest"}'] == 1
        assert snap['repro_faults_total{action="crash"}'] == 1
        assert snap["repro_invariant_checks_total"] == 1
        assert snap['repro_requests_total{outcome="granted"}'] == 1
        assert snap["repro_clock_seconds"] == 4.0
        key = 'repro_message_latency_seconds{src_region="us-east1",dst_region="us-west1"}'
        assert snap[key + "_count"] == 1
        assert snap[key + "_sum"] == pytest.approx(0.1)

    def test_snapshot_json_safe(self):
        _, events = traced_run(quick_config())
        snap = feed_registry(events).snapshot()
        json.dumps(snap)  # must not raise
        assert any(key.startswith("repro_events_total") for key in snap)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_histogram_buckets_cumulative_in_render(self):
        registry = MetricsRegistry()
        # One histogram type: the cells are PerfHistograms, the ``le``
        # edges theirs (decade boundaries are among the rendered ones).
        histogram = registry.histogram("h")
        histogram.observe(value=0.05)
        histogram.observe(value=0.5)
        histogram.observe(value=5.0)
        text = prometheus(registry.families())
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_sum 5.55" in text
        assert "h_count 3" in text

    def test_label_cardinality_caps_at_overflow_cell(self):
        registry = MetricsRegistry(max_label_values=3)
        counter = registry.counter("per_entity_total", labelnames=("entity",))
        for index in range(10):
            counter.inc(f"e{index}")
        # Three real cells plus the overflow bucket; totals stay exact.
        assert len(counter.cells) == 4
        assert counter.cells[(OVERFLOW_LABEL,)] == 7
        assert sum(counter.cells.values()) == 10

    def test_existing_cells_keep_updating_past_the_cap(self):
        registry = MetricsRegistry(max_label_values=2)
        counter = registry.counter("x_by_label", labelnames=("label",))
        counter.inc("a")
        counter.inc("b")
        counter.inc("c")  # new combination: overflows
        counter.inc("a")  # existing cell: still attributed exactly
        assert counter.cells[("a",)] == 2
        assert counter.cells[("b",)] == 1
        assert counter.cells[(OVERFLOW_LABEL,)] == 1

    def test_histograms_overflow_too(self):
        registry = MetricsRegistry(max_label_values=1)
        histogram = registry.histogram("h_by_node", labelnames=("node",))
        histogram.observe("n0", value=0.5)
        histogram.observe("n1", value=0.5)
        assert histogram.count("n0") == 1
        assert histogram.count(OVERFLOW_LABEL) == 1

    def test_directly_constructed_instruments_are_unbounded(self):
        counter = Counter("free", "", labelnames=("entity",))
        for index in range(2000):
            counter.inc(f"e{index}")
        assert len(counter.cells) == 2000

    def test_nonpositive_cap_rejected_and_none_disables(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_values=0)
        registry = MetricsRegistry(max_label_values=None)
        counter = registry.counter("unbounded_total", labelnames=("entity",))
        for index in range(2000):
            counter.inc(f"e{index}")
        assert len(counter.cells) == 2000


class TestExposition:
    def test_render_is_parseable_prometheus_text(self):
        _, events = traced_run(quick_config())
        text = prometheus(feed_registry(events).families())
        assert text.endswith("\n")
        typed: dict[str, str] = {}
        for line in text.strip().split("\n"):
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(" ", 3)
                typed[name] = kind
                continue
            if line.startswith("#"):
                continue
            # Every sample line: name{labels} value — value parses float.
            name_part, _, value = line.rpartition(" ")
            float(value)
            bare = name_part.split("{")[0]
            family = bare
            for suffix in ("_bucket", "_sum", "_count"):
                if bare.endswith(suffix) and bare[: -len(suffix)] in typed:
                    family = bare[: -len(suffix)]
            assert family in typed, line
        assert typed["repro_events_total"] == "counter"
        assert typed["repro_span_duration_seconds"] == "histogram"

    def test_metrics_server_serves_scrapes(self):
        async def scenario():
            registry = MetricsRegistry()
            registry.counter("repro_events_total", labelnames=("type",)).inc("x")
            server = MetricsServer(lambda: prometheus(registry.families()), port=0)
            await server.start()
            url = f"http://127.0.0.1:{server.port}/metrics"
            body, content_type = await asyncio.to_thread(self._get, url)
            missing = await asyncio.to_thread(self._status, f"http://127.0.0.1:{server.port}/nope")
            await server.stop()
            return body, content_type, missing, server.scrapes

        body, content_type, missing, scrapes = asyncio.run(scenario())
        assert 'repro_events_total{type="x"} 1' in body
        assert content_type == CONTENT_TYPE
        assert missing == 404
        assert scrapes == 1

    @staticmethod
    def _get(url: str) -> tuple[str, str]:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.read().decode("utf-8"),
                response.headers.get("Content-Type", ""),
            )

    @staticmethod
    def _status(url: str) -> int:
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                return response.status
        except urllib.error.HTTPError as error:
            return error.code


class TestGzipTraces:
    def test_jsonl_gz_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        config = quick_config(duration=10.0, trace_path=str(path))
        Experiment(config).run()
        with gzip.open(path, "rb") as handle:
            assert handle.read(1)  # decompresses: actually gzip
        events = read_trace(path)
        assert events[0]["type"] == "run.meta"
        assert events[-1]["type"] == "run.end"
        assert audit_events(events).ok

    def test_plain_and_gz_traces_identical(self, tmp_path):
        plain, gz = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
        # Two runs in one process: every wire id (msg_id, request_id)
        # restarts per deployment, so the second run's trace is the
        # first's event for event.
        Experiment(quick_config(duration=10.0, trace_path=str(plain))).run()
        Experiment(quick_config(duration=10.0, trace_path=str(gz))).run()
        assert read_trace(plain) == read_trace(gz)


class TestFaultEvents:
    def _fault_run(self, faults):
        return traced_run(
            quick_config(duration=20.0, faults=tuple(faults))
        )

    def test_crash_and_recover_traced(self):
        _, events = self._fault_run([
            RegionFault(5.0, "crash", (Region.US_WEST1,)),
            RegionFault(10.0, "recover", (Region.US_WEST1,)),
        ])
        crashes = [e for e in events if e["type"] == "fault.crash"]
        recovers = [e for e in events if e["type"] == "fault.recover"]
        assert crashes and recovers
        assert any("us-west1" in e["targets"] for e in crashes)
        rows = TraceSummaryBuilder().consume(events).faults
        assert any(row[1] == "crash" for row in rows)

    def test_partition_and_heal_traced(self):
        from repro.net.regions import PAPER_REGIONS

        groups = (tuple(PAPER_REGIONS[:1]), tuple(PAPER_REGIONS[1:]))
        _, events = self._fault_run([
            RegionFault(5.0, "partition", groups=groups),
            RegionFault(10.0, "heal"),
        ])
        partitions = [e for e in events if e["type"] == "fault.partition"]
        heals = [e for e in events if e["type"] == "fault.heal"]
        assert partitions and heals
        assert "|" in partitions[0]["groups"]

    def test_summary_has_invariant_rows(self):
        _, events = traced_run(quick_config())
        summary = TraceSummaryBuilder().consume(events)
        assert summary.feed.invariant_checks.cells[()] >= 1
        assert not summary.feed.invariant_violations.cells
