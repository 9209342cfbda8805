"""Unified telemetry for both substrates (sim and live).

``repro.obs`` is the observation plane the harness, the CLI, and every
future perf/robustness change measure themselves with:

* :class:`~repro.obs.bus.EventBus` — the emit surface instrumented code
  talks to.  It is **absent by default**: substrates expose an ``obs``
  attribute that is ``None`` unless a run asked for tracing, and every
  instrumentation point is a single ``if obs is not None`` branch, so a
  disabled run allocates nothing and pays one pointer test per event.
* Sinks — :class:`~repro.obs.bus.JsonlSink` (one JSON object per line,
  schema below) and :class:`~repro.obs.bus.RingSink` (bounded in-memory
  buffer for tests).
* :mod:`repro.obs.schema` — the documented event taxonomy and a
  dependency-free validator; every event either substrate emits
  validates against it (``tests/test_obs.py`` enforces this).
* :mod:`repro.obs.summary` — turns a trace into the per-phase latency
  and per-message-type tables ``python -m repro trace FILE`` prints.

The **active monitoring** layer ("Active monitoring" in DESIGN.md §3)
rides the same stream as bus taps; :mod:`repro.obs.instruments` is the
one place that decides which of these planes a run has and attaches them:

* :mod:`repro.obs.audit` — an online/offline invariant auditor that
  checks structural trace invariants and the Samya safety arithmetic
  (Eq. 1, token conservation) and reports violations instead of
  asserting mid-run.
* :mod:`repro.obs.registry` — a counter/gauge/histogram registry fed
  from the same emit sites, snapshot into bench artifacts, and the one
  Prometheus writer every plane's ``families()`` goes through.
* :mod:`repro.obs.exposition` — the asyncio ``/metrics`` endpoint
  for live runs.
* :mod:`repro.obs.demand` — the demand & contention plane: token
  locality, a bounded hot-entity sketch and the prediction scorecard,
  surfaced as ``demand.*`` trace rollups, ``repro_demand_*`` metric
  families, and the ``--demand`` offline report.
* :mod:`repro.obs.flow` — the flow & resource plane: per-link wire
  accounting, queue/backpressure watermarks, and opt-in memory
  telemetry, surfaced as ``flow.*`` trace rollups, ``repro_flow_*``
  metric families, and the ``--flow`` offline report.

A ``repro top`` frame is a header line followed by those two reports,
rendered from the in-flight trackers instead of a trace.

Timestamps are **substrate clock seconds** — simulated seconds under the
discrete-event kernel, wall seconds since loop start under the live
clock — so sim and live traces share one schema and one summarizer.

Determinism contract: the bus observes, never perturbs.  Emitting reads
the clock and message fields but draws no randomness and schedules no
events, so a fixed-seed sim run produces bit-identical results (and an
identical event stream) with tracing on or off.
"""

from repro.obs.audit import InvariantAuditor, audit_events, format_audit_report
from repro.obs.bus import EventBus, JsonlSink, NullSink, RingSink, trace_id_of
from repro.obs.critical_path import (
    analyze_critical_paths,
    format_critical_path_report,
)
from repro.obs.demand import (
    DemandTap,
    DemandTracker,
    SpaceSavingSketch,
    format_demand_report,
    track_demand,
)
from repro.obs.flow import (
    FlowTap,
    FlowTracker,
    ResourceProbe,
    WIRE_HEADER_BYTES,
    entity_table_bytes,
    format_flow_report,
    track_flow,
)
from repro.obs.perf import PerfHistogram, PerfRecorder
from repro.obs.registry import MetricsRegistry, TraceMetricsFeed, feed_registry
from repro.obs.schema import (
    SCHEMA,
    iter_trace,
    read_trace,
    validate_event,
    validate_events,
)
from repro.obs.summary import format_trace_summary

__all__ = [
    "DemandTap",
    "DemandTracker",
    "EventBus",
    "FlowTap",
    "FlowTracker",
    "InvariantAuditor",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "PerfHistogram",
    "PerfRecorder",
    "ResourceProbe",
    "RingSink",
    "SCHEMA",
    "SpaceSavingSketch",
    "TraceMetricsFeed",
    "WIRE_HEADER_BYTES",
    "analyze_critical_paths",
    "audit_events",
    "entity_table_bytes",
    "feed_registry",
    "format_audit_report",
    "format_critical_path_report",
    "format_demand_report",
    "format_flow_report",
    "format_trace_summary",
    "iter_trace",
    "read_trace",
    "track_demand",
    "track_flow",
    "trace_id_of",
    "validate_event",
    "validate_events",
]
