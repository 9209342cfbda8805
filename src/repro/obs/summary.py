"""Turn a trace into the tables ``python -m repro trace FILE`` prints.

Aggregation mirrors the paper's analysis axes: time-per-protocol-phase
(spans), message volume per type and per region pair (the WAN round-trip
story behind Fig. 3b-3h and Table 2b), and request outcomes.

:class:`TraceSummaryBuilder` computes none of these itself: it pushes
each event through the three folds every other surface already uses —
the registry feed (:class:`~repro.obs.registry.TraceMetricsFeed`), the
demand tap and the flow tap — and renders from what they hold, so a
count in the summary is the count ``/metrics``, ``--demand`` and
``--flow`` report.  All three keep bounded state (label-capped cells,
log-bucketed histograms, a top-K sketch), so a 100k-entity scale trace
summarizes in **one pass** and in memory proportional to the number of
*distinct* span names, region pairs and message types.  What no fold
holds stays here: the ``run.meta`` header and the fault / liveness
timeline rows.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.demand import DemandTap, DemandTracker
from repro.obs.flow import FlowTap, FlowTracker, format_wire_table
from repro.obs.registry import MetricsRegistry

# NOTE: repro.harness.report is imported lazily inside
# format_trace_summary — the harness package imports the core modules,
# which import repro.obs.bus, and this package's __init__ imports this
# module; a module-level import would close that cycle.


def _by_label(cells: dict[tuple[str, ...], float], position: int = 0) -> dict[str, int]:
    """Counter cells summed over every label but the one at ``position``."""
    out: dict[str, int] = {}
    for labels, value in cells.items():
        out[labels[position]] = out.get(labels[position], 0) + int(value)
    return out


class TraceSummaryBuilder:
    """Single-pass, bounded-memory trace summarizer.

    Feed every event through :meth:`add` (from a list, a ring buffer, or
    a streaming :func:`~repro.obs.schema.iter_trace` generator), then
    :meth:`format` renders the tables; ``demand`` and ``flow`` are the
    replayed trackers the ``--demand`` / ``--flow`` reports read.  A
    trace is input from outside the program: the folds read every field
    with ``.get`` and a ``"?"`` default, and a line that is not an event
    at all counts as one of type ``"?"``.
    """

    def __init__(self) -> None:
        self.meta: dict[str, Any] | None = None
        #: Injected faults and liveness detections, in trace order.
        self.faults: list[list[object]] = []
        self.feed = MetricsRegistry().tap()
        self.demand = DemandTracker()
        self.flow = FlowTracker()
        self._folds = (self.feed, DemandTap(self.demand), FlowTap(self.flow))

    def add(self, event: dict[str, Any]) -> None:
        etype = event.get("type") if isinstance(event, dict) else None
        if not isinstance(etype, str):
            etype, event = "?", {"type": "?"}
        for fold in self._folds:
            fold(event)
        if etype == "run.meta":
            if self.meta is None:
                self.meta = event
        elif etype.startswith("liveness."):
            # Detections read best in the fault timeline: they answer
            # "what went wrong when", same as the injected faults do.
            self.faults.append(
                [f"{event.get('ts', 0.0):.1f}", etype[9:], event.get("node", "-")]
            )
        elif etype.startswith("fault."):
            target = event.get("targets") or event.get("groups") or "-"
            self.faults.append([f"{event.get('ts', 0.0):.1f}", etype[6:], target])

    def consume(self, events: Iterable[dict[str, Any]]) -> "TraceSummaryBuilder":
        for event in events:
            self.add(event)
        return self

    @property
    def events(self) -> int:
        """Events folded so far, of every type."""
        return sum(_by_label(self.feed.events.cells).values())

    # -- rendering ---------------------------------------------------------

    def span_table_rows(self) -> list[list[object]]:
        rows: list[list[object]] = []
        for (span,), hist in sorted(self.feed.span_duration.cells.items()):
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

        feed = self.feed
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
        by_event = feed.messages.cells
        messages = [
            [
                msg_type,
                *(
                    int(by_event.get((event, msg_type), 0))
                    for event in ("send", "deliver", "drop")
                ),
            ]
            for msg_type in sorted(_by_label(by_event, 1))
        ]
        if messages:
            sections.append(
                format_table(
                    ["msg type", "sent", "delivered", "dropped"],
                    messages,
                    title="messages by payload type",
                )
            )
        flow = self.flow.snapshot()
        if flow["types"]:
            sections.append(format_wire_table(flow))
        regions = [
            [f"{src} -> {dst}", hist.count, f"{hist.mean * 1000.0:.2f}"]
            for (src, dst), hist in sorted(feed.message_latency.cells.items())
        ]
        if regions:
            sections.append(
                format_table(
                    ["region pair", "delivered", "mean latency ms"],
                    regions,
                    title="deliveries by region pair",
                )
            )
        outcomes = sorted(_by_label(feed.requests.cells).items())
        if outcomes:
            sections.append(
                format_table(["outcome", "count"], outcomes, title="request outcomes")
            )
        hot = self.demand.hot
        # Only worth a table when entities are actually contended; a
        # single-entity trace (the core harness) says nothing new here.
        if len(hot) > 1:
            sections.append(
                format_table(
                    ["entity", "served requests", "max over-count"],
                    hot.items(),
                    title=f"hottest entities (space-saving top-{hot.capacity})",
                )
            )
        if self.faults:
            title = (
                "injected faults & liveness detections"
                if feed.liveness_events.cells
                else "injected faults"
            )
            sections.append(
                format_table(["t (s)", "fault", "targets"], self.faults, title=title)
            )
        checks = int(feed.invariant_checks.cells.get((), 0))
        violations = _by_label(feed.invariant_violations.cells)
        opened = sum(_by_label(feed.pledge_opened.cells).values())
        if checks or violations or opened:
            rows: list[list[object]] = [["checks recorded", checks]]
            for invariant in sorted(violations):
                rows.append([f"violations: {invariant}", violations[invariant]])
            if not violations:
                rows.append(["violations", 0])
            if opened:
                settled = _by_label(feed.pledge_settled.cells, 1)
                rows.append(["pledges opened", opened])
                for reason in sorted(settled):
                    rows.append([f"pledges settled: {reason}", settled[reason]])
                rows.append(
                    [
                        "pledge recoveries",
                        sum(_by_label(feed.pledge_recoveries.cells).values()),
                    ]
                )
                rows.append(["pledges unresolved", opened - sum(settled.values())])
            sections.append(
                format_table(["safety audit", "count"], rows, title="invariant audits")
            )
        return "\n\n".join(sections)


def format_trace_summary(events: Iterable[dict[str, Any]], source: str = "") -> str:
    """The full human-readable summary for one trace (single pass)."""
    return TraceSummaryBuilder().consume(events).format(source=source)
