"""Counter/gauge/histogram registry fed from the telemetry stream.

The registry is the numeric face of the trace: where the trace is the
full ordered story, the registry is the running totals a scrape (or a
bench artifact) wants.  It is deliberately dependency-free and
Prometheus-shaped — counters only go up, gauges are set, histograms
have cumulative buckets — and this module holds the one writer of that
text format, :func:`prometheus`, which renders *families*: plain
``(name, kind, help, labelnames, cells)`` values, ``cells`` mapping
label-value tuples to a number or a
:class:`~repro.obs.perf.PerfHistogram`.  Every plane that has numbers
for a scrape yields such values from a ``families()`` verb
(:class:`MetricsRegistry` here, the demand, perf and flow planes in
their own modules); none of them formats text.

Instruments are keyed by (name, label values); label sets are usually
tiny (message types, region pairs, span names), so plain dicts are
fine.  The exception is anything labelled per entity or per node at
scale — 10^5 entities would mean 10^5 cells per instrument and an
O(entities) /metrics page — so every registry-created instrument caps
its cell count (``max_label_values``, default 1024): once the cap is
hit, *new* label combinations aggregate into a single
``"__other__"`` overflow cell while existing cells keep updating.
Exposition stays O(cap) no matter how many entities a run touches.  :class:`TraceMetricsFeed` is the bridge from the event stream:
subscribed as an :class:`~repro.obs.bus.EventBus` tap, it folds every
event into the standard instrument set (:data:`STANDARD`), which means
sim runs, live runs, and offline trace replays all produce identical
metrics for identical traffic.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.obs.perf import EXPOSITION_EDGES, PerfHistogram

LabelValues = tuple[str, ...]

#: One metric family, as every plane's ``families()`` yields it and
#: :func:`prometheus` renders it: ``(name, kind, help, labelnames,
#: cells)``; a ``histogram`` family's cells are ``PerfHistogram``\ s.
Family = tuple[str, str, str, tuple[str, ...], Mapping[LabelValues, Any]]

#: The label value unseen combinations collapse into once an instrument
#: hits its cell cap.
OVERFLOW_LABEL = "__other__"


class _Instrument:
    """One family's cells, one per label-value tuple, behind the cap.

    Existing cells always keep updating — the cap only stops *new*
    combinations from allocating, so totals stay exact and only the
    attribution of the long tail coarsens.
    """

    kind = ""

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        max_cells: int | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.max_cells = max_cells
        self.cells: dict[LabelValues, Any] = {}

    def _key(self, labels: tuple[str, ...]) -> LabelValues:
        """The cell to write: the real key, or the overflow cell at the cap."""
        cells = self.cells
        limit = self.max_cells
        if limit is None or labels in cells or len(cells) < limit:
            return labels
        return (OVERFLOW_LABEL,) * len(self.labelnames)


class Counter(_Instrument):
    """Monotone counter."""

    kind = "counter"

    def inc(self, *labels: str, value: float = 1.0) -> None:
        cells = self.cells
        if labels in cells:
            cells[labels] += value
            return
        key = self._key(labels)
        cells[key] = cells.get(key, 0.0) + value


class Gauge(_Instrument):
    """Last-write-wins value."""

    kind = "gauge"

    def set(self, *labels: str, value: float) -> None:
        self.cells[self._key(labels)] = value


class Distribution(_Instrument):
    """Histogram family: one mergeable
    :class:`~repro.obs.perf.PerfHistogram` per cell — the histogram the
    perf plane and the trace summary already use, so a percentile is
    the same number on every surface."""

    kind = "histogram"

    def observe(self, *labels: str, value: float) -> None:
        key = self._key(labels)
        hist = self.cells.get(key)
        if hist is None:
            hist = self.cells[key] = PerfHistogram()
        hist.record(value)

    def count(self, *labels: str) -> int:
        hist = self.cells.get(labels)
        return hist.count if hist is not None else 0


class MetricsRegistry:
    """Holds instruments; snapshot and families are the two read paths.

    ``max_label_values`` bounds the per-instrument cell count (see the
    module docs); ``None`` disables the cap.
    """

    def __init__(self, max_label_values: int | None = 1024) -> None:
        if max_label_values is not None and max_label_values <= 0:
            raise ValueError("max_label_values must be positive or None")
        self.max_label_values = max_label_values
        self._instruments: dict[str, _Instrument] = {}

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Distribution:
        return self._get_or_create(Distribution, name, help, labelnames)

    def _get_or_create(self, cls, name, help, labelnames):
        existing = self._instruments.get(name)
        if existing is None:
            existing = self._instruments[name] = cls(
                name, help, labelnames, max_cells=self.max_label_values
            )
        elif type(existing) is not cls or existing.labelnames != labelnames:
            raise ValueError(
                f"instrument {name!r} re-registered with a "
                "different kind or label set"
            )
        return existing

    def tap(self) -> "TraceMetricsFeed":
        """A bus subscriber that keeps this registry current."""
        return TraceMetricsFeed(self)

    def families(self) -> Iterator[Family]:
        """Every instrument, registration order (cell-less ones too: a
        scrape lists a family before its first sample)."""
        for instrument in self._instruments.values():
            yield (
                instrument.name,
                instrument.kind,
                instrument.help,
                instrument.labelnames,
                instrument.cells,
            )

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time JSON-safe dump (embedded in bench artifacts).

        Counters and gauges flatten to ``name{label="v",...}`` keys;
        histograms report count and sum per cell (bucket detail stays
        in the scrape path, where it belongs).
        """
        out: dict[str, Any] = {}
        for name, kind, _, labelnames, cells in self.families():
            for labels, value in sorted(cells.items()):
                key = _flat_key(name, labelnames, labels)
                if kind == "histogram":
                    out[key + "_count"] = value.count
                    out[key + "_sum"] = round(value.total, 9)
                else:
                    out[key] = value
        return out


def prometheus(families: Iterable[Family]) -> str:
    """``families`` in Prometheus text exposition format 0.0.4 — the
    only writer of that format under ``src/repro``.

    A histogram cell renders ``PerfHistogram``'s own edges (every
    :data:`~repro.obs.perf.EXPOSITION_STRIDE`-th, cumulative counts at
    a boundary subset being exact) plus ``_sum`` / ``_count``, so any
    scraper computes quantiles with its own functions.
    """
    lines: list[str] = []
    for name, kind, help, labelnames, cells in families:
        if help:
            lines.append(f"# HELP {name} {_escape(help)}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in sorted(cells.items()):
            plain = _labels(labelnames, labels)
            if kind != "histogram":
                lines.append(f"{name}{plain} {_format_value(value)}")
                continue
            for upper, cumulative in value.cumulative(EXPOSITION_EDGES):
                le = _labels(labelnames, labels, f'le="{upper:.9g}"')
                lines.append(f"{name}_bucket{le} {cumulative}")
            le = _labels(labelnames, labels, 'le="+Inf"')
            lines.append(f"{name}_bucket{le} {value.count}")
            lines.append(f"{name}_sum{plain} {_format_value(value.total)}")
            lines.append(f"{name}_count{plain} {value.count}")
    return "\n".join(lines) + "\n" if lines else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labelnames, labels, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape(str(value))}"'
        for name, value in zip(labelnames, labels)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _flat_key(name: str, labelnames: tuple[str, ...], labels: LabelValues) -> str:
    if not labelnames:
        return name
    inner = ",".join(
        f'{label}="{value}"' for label, value in zip(labelnames, labels)
    )
    return f"{name}{{{inner}}}"


#: The instruments :class:`TraceMetricsFeed` keeps, by its attribute:
#: ``(kind, name, labels, help)``.  Only what nothing but the event
#: stream knows: token locality and forecast error belong to
#: :class:`~repro.obs.demand.DemandTracker`, wire bytes and queues to
#: :class:`~repro.obs.flow.FlowTracker`; each renders its own families
#: (DESIGN.md §3, "one owner per number").
STANDARD: dict[str, tuple[str, str, tuple[str, ...], str]] = {
    "events": ("counter", "repro_events_total", ("type",), "Trace events by type"),
    "messages": ("counter", "repro_messages_total", ("event", "msg_type"),
                 "Transport-plane envelopes by event and payload type"),
    "message_latency": ("histogram", "repro_message_latency_seconds",
                        ("src_region", "dst_region"),
                        "Delivery latency per region pair"),
    "span_duration": ("histogram", "repro_span_duration_seconds", ("span",),
                      "Completed protocol-phase spans"),
    "requests": ("counter", "repro_requests_total", ("outcome",),
                 "Client request outcomes"),
    "reallocations": ("counter", "repro_reallocations_total", ("event",),
                      "Redistribution decision points"),
    "faults": ("counter", "repro_faults_total", ("action",), "Injected faults"),
    "invariant_checks": ("counter", "repro_invariant_checks_total", (),
                         "Conservation audits run"),
    "invariant_violations": ("counter", "repro_invariant_violations_total",
                             ("invariant",), "Safety invariant violations reported"),
    "tokens_left": ("gauge", "repro_tokens_left", ("node",),
                    "Last observed per-site token balance"),
    "clock": ("gauge", "repro_clock_seconds", (), "Substrate clock of the last event"),
    "pledge_opened": ("counter", "repro_pledge_opened_total", ("node",),
                      "Balances frozen by answering a foreign election"),
    "pledge_settled": ("counter", "repro_pledge_settled_total", ("node", "reason"),
                       "Pledges resolved, by how the outcome arrived"),
    "pledge_recoveries": ("counter", "repro_pledge_recoveries_total", ("node",),
                          "Recovery elections started to resolve a pledge"),
    "pledges_open": ("gauge", "repro_pledges_open", ("node",),
                     "Pledges currently unresolved"),
    "liveness_events": ("counter", "repro_liveness_events_total", ("kind",),
                        "Watchdog detections and client write-offs"),
}


class TraceMetricsFeed:
    """EventBus tap that folds repro-trace/1 events into a registry; one
    attribute per :data:`STANDARD` instrument."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        for attribute, (kind, name, labels, help) in STANDARD.items():
            setattr(self, attribute, getattr(registry, kind)(name, help, labels))

    def __call__(self, event: Mapping[str, Any]) -> None:
        etype = event.get("type", "")
        events, key = self.events.cells, (etype,)
        if key in events:  # in place: every type after its first event
            events[key] += 1.0
        else:
            self.events.inc(etype)
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            self.clock.cells[()] = float(ts)
        handler = self._HANDLERS.get(etype)
        if handler is None:
            handler = self._FAMILIES.get(etype.partition(".")[0])
        if handler is not None:
            handler(self, event)

    def _on_msg(self, event: Mapping[str, Any]) -> None:
        etype = event["type"]
        self.messages.inc(etype[4:], str(event.get("msg_type", "?")))
        latency = event.get("latency")
        if etype == "msg.deliver" and isinstance(latency, (int, float)):
            self.message_latency.observe(
                str(event.get("src_region", "?")),
                str(event.get("dst_region", "?")),
                value=float(latency),
            )

    def _on_span_end(self, event: Mapping[str, Any]) -> None:
        self.span_duration.observe(
            str(event.get("span", "?")), value=float(event.get("dur", 0.0))
        )
        if event.get("span") == "request":
            self.requests.inc(str(event.get("outcome", "?")))

    def _on_realloc(self, event: Mapping[str, Any]) -> None:
        etype = event["type"]
        self.reallocations.inc(etype[8:])
        tokens_after = event.get("tokens_after")
        if etype == "realloc.apply" and isinstance(tokens_after, int):
            self.tokens_left.set(str(event.get("node", "")), value=float(tokens_after))

    def _on_pledge(self, event: Mapping[str, Any]) -> None:
        etype = event["type"]
        node = str(event.get("node", ""))
        if etype == "pledge.open":
            self.pledge_opened.inc(node)
            self.pledges_open.set(node, value=1.0)
        elif etype == "pledge.settle":
            self.pledge_settled.inc(node, str(event.get("reason", "?")))
            self.pledges_open.set(node, value=0.0)
        else:
            self.pledge_recoveries.inc(node)

    def _on_invariant(self, event: Mapping[str, Any]) -> None:
        if event["type"] == "invariant.check":
            self.invariant_checks.inc()
        else:
            self.invariant_violations.inc(str(event.get("invariant", "?")))

    def _on_site_serve(self, event: Mapping[str, Any]) -> None:
        tokens = event.get("tokens_left")
        if isinstance(tokens, int):
            self.tokens_left.set(str(event.get("node", "")), value=float(tokens))

    _HANDLERS = {
        **dict.fromkeys(("msg.send", "msg.deliver", "msg.drop"), _on_msg),
        "span.end": _on_span_end,
        "site.serve": _on_site_serve,
        **dict.fromkeys(("realloc.trigger", "realloc.apply"), _on_realloc),
        **dict.fromkeys(("pledge.open", "pledge.settle", "pledge.recover"), _on_pledge),
        **dict.fromkeys(("invariant.check", "invariant.violation"), _on_invariant),
    }
    #: Open-ended families, by the prefix before the first dot: a type
    #: not in ``_HANDLERS`` counts under its suffix.
    _FAMILIES = {
        "fault": lambda self, event: self.faults.inc(event["type"][6:]),
        "liveness": lambda self, event: self.liveness_events.inc(event["type"][9:]),
    }


def feed_registry(events: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Replay an event stream into a fresh registry (offline path)."""
    registry = MetricsRegistry()
    feed = TraceMetricsFeed(registry)
    for event in events:
        feed(event)
    return registry
