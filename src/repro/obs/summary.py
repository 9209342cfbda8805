"""Turn a trace into the tables ``python -m repro trace FILE`` prints.

Aggregation mirrors the paper's analysis axes: time-per-protocol-phase
(spans), message volume per type and per region pair (the WAN round-trip
story behind Fig. 3b-3h and Table 2b), and request outcomes.

:class:`TraceSummaryBuilder` folds the whole summary in **one pass**
over the event stream with bounded state — span durations live in
log-bucketed :class:`~repro.obs.perf.PerfHistogram`\\ s instead of raw
sample lists, and per-entity accounting lives in a bounded
:class:`~repro.obs.demand.SpaceSavingSketch` (top-K heavy hitters,
never a per-entity dict) — so a 100k-entity scale trace summarizes in
memory proportional to the number of *distinct* span names, region
pairs, and the sketch capacity, not the number of events or entities.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Iterable

from repro.obs.demand import SpaceSavingSketch
from repro.obs.perf import PerfHistogram

# NOTE: repro.harness.report is imported lazily inside
# format_trace_summary — the harness package imports the core modules,
# which import repro.obs.bus, and this package's __init__ imports this
# module; a module-level import would close that cycle.


class TraceSummaryBuilder:
    """Single-pass, bounded-memory trace summarizer.

    Feed every event through :meth:`add` (from a list, a ring buffer, or
    a streaming :func:`~repro.obs.schema.iter_trace` generator), then
    :meth:`format` renders the same tables the multi-pass row functions
    produce — with span percentiles estimated from merged log-bucketed
    histograms (exact count/mean/max, quantiles within one bucket ratio).
    """

    #: Sketch capacity for the hottest-entities table: bounded per-entity
    #: accounting — the streaming path must never grow O(entities) state.
    ENTITY_TOP_K = 16

    def __init__(self) -> None:
        self.events = 0
        self.meta: dict[str, Any] | None = None
        self.spans: dict[str, PerfHistogram] = {}
        self.entities = SpaceSavingSketch(self.ENTITY_TOP_K)
        self.sent: Counter[str] = Counter()
        self.delivered: Counter[str] = Counter()
        self.dropped: Counter[str] = Counter()
        #: Wire accounting from the optional byte stamps flow-enabled
        #: runs put on msg.send — bounded by distinct message types.
        self.wire_frames: Counter[str] = Counter()
        self.wire_payload_bytes: Counter[str] = Counter()
        self.wire_frame_bytes: Counter[str] = Counter()
        self.region_counts: Counter[tuple[str, str]] = Counter()
        self.region_latency_sums: dict[tuple[str, str], float] = defaultdict(float)
        self.region_latency_counts: Counter[tuple[str, str]] = Counter()
        self.outcomes: Counter[str] = Counter()
        self.faults: list[list[object]] = []
        self.invariant_checks = 0
        self.invariant_violations: Counter[str] = Counter()
        #: Pledge lifecycle: opens, settles by reason, recovery elections.
        self.pledges_opened = 0
        self.pledge_settlements: Counter[str] = Counter()
        self.pledge_recoveries = 0
        #: Watchdog detections / client write-offs, keyed by liveness kind.
        self.liveness: Counter[str] = Counter()

    def add(self, event: dict[str, Any]) -> None:
        self.events += 1
        etype = event.get("type")
        if etype == "span.end":
            span = event["span"]
            hist = self.spans.get(span)
            if hist is None:
                hist = self.spans[span] = PerfHistogram()
            hist.record(float(event["dur"]))
            if span == "request":
                self.outcomes[event["outcome"]] += 1
        elif etype == "site.serve":
            entity = event.get("entity")
            if isinstance(entity, str) and entity:
                self.entities.update(entity)
        elif etype == "msg.send":
            msg_type = event["msg_type"]
            self.sent[msg_type] += 1
            payload = event.get("bytes")
            if isinstance(payload, int) and not isinstance(payload, bool):
                frame = event.get("frame_bytes")
                if isinstance(frame, bool) or not isinstance(frame, int):
                    frame = payload + 4
                self.wire_frames[msg_type] += 1
                self.wire_payload_bytes[msg_type] += payload
                self.wire_frame_bytes[msg_type] += frame
        elif etype == "msg.deliver":
            self.delivered[event["msg_type"]] += 1
            pair = (event.get("src_region", "?"), event.get("dst_region", "?"))
            self.region_counts[pair] += 1
            if "latency" in event:
                self.region_latency_sums[pair] += float(event["latency"])
                self.region_latency_counts[pair] += 1
        elif etype == "msg.drop":
            self.dropped[event["msg_type"]] += 1
        elif etype == "run.meta":
            if self.meta is None:
                self.meta = event
        elif etype == "invariant.check":
            self.invariant_checks += 1
        elif etype == "invariant.violation":
            self.invariant_violations[event.get("invariant", "?")] += 1
        elif etype == "pledge.open":
            self.pledges_opened += 1
        elif etype == "pledge.settle":
            self.pledge_settlements[event.get("reason", "?")] += 1
        elif etype == "pledge.recover":
            self.pledge_recoveries += 1
        elif isinstance(etype, str) and etype.startswith("liveness."):
            self.liveness[etype[9:]] += 1
            # Detections read best in the fault timeline: they answer
            # "what went wrong when", same as the injected faults do.
            self.faults.append(
                [f"{event.get('ts', 0.0):.1f}", etype[9:], event.get("node", "-")]
            )
        elif isinstance(etype, str) and etype.startswith("fault."):
            target = event.get("targets") or event.get("groups") or "-"
            self.faults.append([f"{event.get('ts', 0.0):.1f}", etype[6:], target])

    def consume(self, events: Iterable[dict[str, Any]]) -> "TraceSummaryBuilder":
        for event in events:
            self.add(event)
        return self

    # -- rendering ---------------------------------------------------------

    def span_table_rows(self) -> list[list[object]]:
        rows: list[list[object]] = []
        for span in sorted(self.spans):
            hist = self.spans[span]
            summary = hist.summary()
            rows.append(
                [
                    span,
                    hist.count,
                    f"{summary.mean * 1000.0:.2f}",
                    f"{summary.p50 * 1000.0:.2f}",
                    f"{summary.p95 * 1000.0:.2f}",
                    f"{summary.maximum * 1000.0:.2f}",
                ]
            )
        return rows

    def format(self, source: str = "") -> str:
        from repro.harness.report import format_table

        sections: list[str] = []
        header = f"trace summary — {self.events} events"
        if source:
            header += f" from {source}"
        if self.meta is not None:
            header += (
                f"\n{self.meta.get('system', '?')} on "
                f"{self.meta.get('substrate', '?')} substrate, "
                f"seed {self.meta.get('seed', '?')}, "
                f"{self.meta.get('duration', 0):.0f}s"
            )
        sections.append(header)
        spans = self.span_table_rows()
        if spans:
            sections.append(
                format_table(
                    ["phase", "count", "mean ms", "p50 ms", "p95 ms", "max ms"],
                    spans,
                    title="per-phase latency (completed spans)",
                )
            )
        messages = [
            [t, self.sent[t], self.delivered[t], self.dropped[t]]
            for t in sorted(set(self.sent) | set(self.delivered) | set(self.dropped))
        ]
        if messages:
            sections.append(
                format_table(
                    ["msg type", "sent", "delivered", "dropped"],
                    messages,
                    title="messages by payload type",
                )
            )
        if self.wire_frame_bytes:
            total = sum(self.wire_frame_bytes.values()) or 1
            wire_rows = [
                [
                    msg_type,
                    self.wire_frames[msg_type],
                    f"{self.wire_payload_bytes[msg_type]:,}",
                    f"{self.wire_frame_bytes[msg_type]:,}",
                    f"{self.wire_frame_bytes[msg_type] / self.wire_frames[msg_type]:.1f}",
                    f"{100.0 * self.wire_frame_bytes[msg_type] / total:.1f}%",
                ]
                for msg_type in sorted(
                    self.wire_frame_bytes,
                    key=lambda t: (-self.wire_frame_bytes[t], t),
                )
            ]
            sections.append(
                format_table(
                    ["msg type", "frames", "payload B", "frame B", "B/frame", "share"],
                    wire_rows,
                    title="wire bytes by message type (flow-enabled run)",
                )
            )
        regions = []
        for pair in sorted(self.region_counts):
            mean_ms = (
                self.region_latency_sums[pair]
                / self.region_latency_counts[pair]
                * 1000.0
                if self.region_latency_counts[pair]
                else 0.0
            )
            regions.append(
                [f"{pair[0]} -> {pair[1]}", self.region_counts[pair], f"{mean_ms:.2f}"]
            )
        if regions:
            sections.append(
                format_table(
                    ["region pair", "delivered", "mean latency ms"],
                    regions,
                    title="deliveries by region pair",
                )
            )
        outcomes = [[o, self.outcomes[o]] for o in sorted(self.outcomes)]
        if outcomes:
            sections.append(
                format_table(["outcome", "count"], outcomes, title="request outcomes")
            )
        hot = self.entities.items()
        # Only worth a table when entities are actually contended; a
        # single-entity trace (the core harness) says nothing new here.
        if len(hot) > 1:
            sections.append(
                format_table(
                    ["entity", "served requests", "max over-count"],
                    [[entity, count, error] for entity, count, error in hot],
                    title=(
                        f"hottest entities (space-saving "
                        f"top-{self.entities.capacity})"
                    ),
                )
            )
        if self.faults:
            title = (
                "injected faults & liveness detections"
                if self.liveness
                else "injected faults"
            )
            sections.append(
                format_table(["t (s)", "fault", "targets"], self.faults, title=title)
            )
        if (
            self.invariant_checks
            or self.invariant_violations
            or self.pledges_opened
        ):
            rows: list[list[object]] = [["checks recorded", self.invariant_checks]]
            for invariant in sorted(self.invariant_violations):
                rows.append(
                    [f"violations: {invariant}", self.invariant_violations[invariant]]
                )
            if not self.invariant_violations:
                rows.append(["violations", 0])
            if self.pledges_opened:
                rows.append(["pledges opened", self.pledges_opened])
                for reason in sorted(self.pledge_settlements):
                    rows.append(
                        [f"pledges settled: {reason}", self.pledge_settlements[reason]]
                    )
                rows.append(["pledge recoveries", self.pledge_recoveries])
                unresolved = self.pledges_opened - sum(
                    self.pledge_settlements.values()
                )
                rows.append(["pledges unresolved", unresolved])
            sections.append(
                format_table(["safety audit", "count"], rows, title="invariant audits")
            )
        return "\n\n".join(sections)


def format_trace_summary(events: Iterable[dict[str, Any]], source: str = "") -> str:
    """The full human-readable summary for one trace (single pass)."""
    return TraceSummaryBuilder().consume(events).format(source=source)
