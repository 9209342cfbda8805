"""Counter/gauge/histogram registry fed from the telemetry stream.

The registry is the numeric face of the trace: where the trace is the
full ordered story, the registry is the running totals a scrape (or a
bench artifact) wants.  It is deliberately dependency-free and
Prometheus-shaped — counters only go up, gauges are set, histograms
have cumulative buckets — so :meth:`MetricsRegistry.prometheus` renders
it in the standard text format without translation.

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
event into the standard instrument set below, which means sim runs,
live runs, and offline trace replays all produce identical metrics for
identical traffic.

Standard instruments (all prefixed ``repro_``):

==============================  =========  ==============================
name                            kind       labels
==============================  =========  ==============================
``events_total``                counter    ``type``
``messages_total``              counter    ``event`` (send/deliver/drop), ``msg_type``
``message_latency_seconds``     histogram  ``src_region``, ``dst_region``
``span_duration_seconds``       histogram  ``span``
``requests_total``              counter    ``outcome``
``reallocations_total``         counter    ``event`` (trigger/apply)
``faults_total``                counter    ``action``
``invariant_checks_total``      counter    —
``invariant_violations_total``  counter    ``invariant``
``tokens_left``                 gauge      ``node``
``clock_seconds``               gauge      —
==============================  =========  ==============================

Demand/contention families (the efficiency story — fed from the same
``site.serve`` / ``epoch.close`` events, present whenever the producer
stamps the optional ``entity``/``waited``/``predicted`` fields):

====================================  =======  =======================
name                                  kind     labels
====================================  =======  =======================
``demand_requests_total``             counter  ``node``, ``path`` (local/waited)
``demand_rejected_total``             counter  ``node``
``demand_starved_total``              counter  ``node``
``demand_locality_ratio``             gauge    ``node``
``demand_entity_requests_total``      counter  ``entity`` (cap-bounded)
``demand_prediction_error``           gauge    ``node``
``demand_prediction_mape_pct``        gauge    ``node``
====================================  =======  =======================

Flow families (the resource story — fed from the optional ``bytes``/
``frame_bytes`` stamps flow-enabled runs put on ``msg.send`` plus the
per-drop ``flow.backpressure`` events; see :mod:`repro.obs.flow`).
Deliberately disjoint from the families
:meth:`~repro.obs.flow.FlowTracker.prometheus` renders from a live
tracker, so a scrape that appends both never repeats a family name:

====================================  =======  ==============================
name                                  kind     labels
====================================  =======  ==============================
``flow_wire_bytes_total``             counter  ``msg_type`` (framed bytes)
``flow_wire_frames_total``            counter  ``msg_type``
``flow_backpressure_total``           counter  ``queue``
====================================  =======  ==============================
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Mapping

#: Default histogram buckets (seconds): spans the intra-region RTT
#: (~1 ms) through consensus-system client queueing (seconds).
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelValues = tuple[str, ...]

#: The label value unseen combinations collapse into once an instrument
#: hits its cell cap.
OVERFLOW_LABEL = "__other__"


def _bounded_key(
    cells: Mapping[LabelValues, Any],
    labels: tuple[str, ...],
    labelnames: tuple[str, ...],
    limit: int | None,
) -> LabelValues:
    """The cell to write: the real key, or the overflow cell at the cap.

    Existing cells always keep updating — the cap only stops *new*
    combinations from allocating, so totals stay exact and only the
    attribution of the long tail coarsens.
    """
    key = tuple(labels)
    if limit is None or key in cells or len(cells) < limit:
        return key
    return (OVERFLOW_LABEL,) * len(labelnames)


class Counter:
    """Monotone counter, one cell per label-value tuple."""

    kind = "counter"

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
        self.cells: dict[LabelValues, float] = {}

    def inc(self, *labels: str, value: float = 1.0) -> None:
        key = _bounded_key(self.cells, labels, self.labelnames, self.max_cells)
        self.cells[key] = self.cells.get(key, 0.0) + value


class Gauge:
    """Last-write-wins value, one cell per label-value tuple."""

    kind = "gauge"

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
        self.cells: dict[LabelValues, float] = {}

    def set(self, *labels: str, value: float) -> None:
        key = _bounded_key(self.cells, labels, self.labelnames, self.max_cells)
        self.cells[key] = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        max_cells: int | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.max_cells = max_cells
        self.buckets = tuple(sorted(buckets))
        #: label values -> [per-bucket counts..., +Inf count]
        self.cells: dict[LabelValues, list[int]] = {}
        self.sums: dict[LabelValues, float] = {}

    def observe(self, *labels: str, value: float) -> None:
        key = _bounded_key(self.cells, labels, self.labelnames, self.max_cells)
        counts = self.cells.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self.cells[key] = counts
            self.sums[key] = 0.0
        counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sums[key] += value

    def count(self, *labels: str) -> int:
        return sum(self.cells.get(tuple(labels), ()))


class MetricsRegistry:
    """Holds instruments; snapshot/render are the two read paths.

    ``max_label_values`` bounds the per-instrument cell count (see the
    module docs); ``None`` disables the cap.
    """

    def __init__(self, max_label_values: int | None = 1024) -> None:
        if max_label_values is not None and max_label_values <= 0:
            raise ValueError("max_label_values must be positive or None")
        self.max_label_values = max_label_values
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter(name, help, labelnames, max_cells=self.max_label_values)
        )

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(
            Gauge(name, help, labelnames, max_cells=self.max_label_values)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram(
                name, help, labelnames, buckets, max_cells=self.max_label_values
            )
        )

    def _get_or_create(self, instrument):
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if type(existing) is not type(instrument) or (
                existing.labelnames != instrument.labelnames
            ):
                raise ValueError(
                    f"instrument {instrument.name!r} re-registered with a "
                    "different kind or label set"
                )
            return existing
        self._instruments[instrument.name] = instrument
        return instrument

    def tap(self) -> "TraceMetricsFeed":
        """A bus subscriber that keeps this registry current."""
        return TraceMetricsFeed(self)

    def prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for instrument in self._instruments.values():
            name = instrument.name
            if instrument.help:
                lines.append(f"# HELP {name} {_escape(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, (Counter, Gauge)):
                for labels, value in sorted(instrument.cells.items()):
                    lines.append(
                        f"{name}{_labels(instrument.labelnames, labels)}"
                        f" {_format_value(value)}"
                    )
            elif isinstance(instrument, Histogram):
                for labels, counts in sorted(instrument.cells.items()):
                    cumulative = 0
                    for bound, count in zip(instrument.buckets, counts):
                        cumulative += count
                        le = _labels(instrument.labelnames, labels, f'le="{bound}"')
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    cumulative += counts[-1]
                    le = _labels(instrument.labelnames, labels, 'le="+Inf"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                    plain = _labels(instrument.labelnames, labels)
                    lines.append(
                        f"{name}_sum{plain} {_format_value(instrument.sums[labels])}"
                    )
                    lines.append(f"{name}_count{plain} {cumulative}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time JSON-safe dump (embedded in bench artifacts).

        Counters and gauges flatten to ``name{label="v",...}`` keys;
        histograms report count and sum per cell (bucket detail stays
        in the scrape path, where it belongs).
        """
        out: dict[str, Any] = {}
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                for labels, counts in sorted(instrument.cells.items()):
                    key = _flat_key(instrument.name, instrument.labelnames, labels)
                    out[key + "_count"] = sum(counts)
                    out[key + "_sum"] = round(instrument.sums[labels], 9)
            else:
                for labels, value in sorted(instrument.cells.items()):
                    key = _flat_key(instrument.name, instrument.labelnames, labels)
                    out[key] = value
        return out


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


class TraceMetricsFeed:
    """EventBus tap that folds repro-trace/1 events into a registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.events = registry.counter(
            "repro_events_total", "Trace events by type", ("type",)
        )
        self.messages = registry.counter(
            "repro_messages_total",
            "Transport-plane envelopes by event and payload type",
            ("event", "msg_type"),
        )
        self.message_latency = registry.histogram(
            "repro_message_latency_seconds",
            "Delivery latency per region pair",
            ("src_region", "dst_region"),
        )
        self.span_duration = registry.histogram(
            "repro_span_duration_seconds",
            "Completed protocol-phase spans",
            ("span",),
        )
        self.requests = registry.counter(
            "repro_requests_total", "Client request outcomes", ("outcome",)
        )
        self.reallocations = registry.counter(
            "repro_reallocations_total", "Redistribution decision points", ("event",)
        )
        self.faults = registry.counter(
            "repro_faults_total", "Injected faults", ("action",)
        )
        self.invariant_checks = registry.counter(
            "repro_invariant_checks_total", "Conservation audits run"
        )
        self.invariant_violations = registry.counter(
            "repro_invariant_violations_total",
            "Safety invariant violations reported",
            ("invariant",),
        )
        self.tokens_left = registry.gauge(
            "repro_tokens_left", "Last observed per-site token balance", ("node",)
        )
        self.clock = registry.gauge(
            "repro_clock_seconds", "Substrate clock of the last event"
        )
        self.demand_requests = registry.counter(
            "repro_demand_requests_total",
            "Granted acquires by how they were served",
            ("node", "path"),
        )
        self.demand_rejected = registry.counter(
            "repro_demand_rejected_total", "Rejected acquires", ("node",)
        )
        self.demand_starved = registry.counter(
            "repro_demand_starved_total",
            "Acquires that waited on a round and were still rejected",
            ("node",),
        )
        self.demand_locality = registry.gauge(
            "repro_demand_locality_ratio",
            "local / (local + waited) granted acquires",
            ("node",),
        )
        self.demand_entity = registry.counter(
            "repro_demand_entity_requests_total",
            "Requests per entity (long tail collapses at the cell cap)",
            ("entity",),
        )
        self.demand_pred_error = registry.gauge(
            "repro_demand_prediction_error",
            "Last epoch's signed forecast error (predicted - observed)",
            ("node",),
        )
        self.demand_pred_mape = registry.gauge(
            "repro_demand_prediction_mape_pct",
            "Running mean absolute percentage forecast error",
            ("node",),
        )
        self.flow_wire_bytes = registry.counter(
            "repro_flow_wire_bytes_total",
            "Framed wire bytes sent per message type",
            ("msg_type",),
        )
        self.flow_wire_frames = registry.counter(
            "repro_flow_wire_frames_total",
            "Encoded frames sent per message type",
            ("msg_type",),
        )
        self.flow_backpressure = registry.counter(
            "repro_flow_backpressure_total",
            "Per-drop backpressure events at a full queue",
            ("queue",),
        )
        self.pledge_opened = registry.counter(
            "repro_pledge_opened_total",
            "Balances frozen by answering a foreign election",
            ("node",),
        )
        self.pledge_settled = registry.counter(
            "repro_pledge_settled_total",
            "Pledges resolved, by how the outcome arrived",
            ("node", "reason"),
        )
        self.pledge_recoveries = registry.counter(
            "repro_pledge_recoveries_total",
            "Recovery elections started to resolve a pledge",
            ("node",),
        )
        self.pledges_open = registry.gauge(
            "repro_pledges_open",
            "Pledges currently unresolved",
            ("node",),
        )
        self.liveness_events = registry.counter(
            "repro_liveness_events_total",
            "Watchdog detections and client write-offs",
            ("kind",),
        )
        #: node -> [local, waited] running split for the locality gauge.
        self._locality: dict[str, list[int]] = {}
        #: node -> [ape_sum, ape_count] running MAPE accumulators.
        self._mape: dict[str, list[float]] = {}

    def __call__(self, event: Mapping[str, Any]) -> None:
        etype = event.get("type", "")
        self.events.inc(etype)
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            self.clock.set(value=float(ts))
        if etype.startswith("msg."):
            self.messages.inc(etype[4:], str(event.get("msg_type", "?")))
            if etype == "msg.send":
                # Byte stamps only exist on flow-enabled runs; the
                # end-of-run flow.* rollups are deliberately NOT folded
                # here — they would double-count these increments.
                frame = event.get("frame_bytes")
                payload = event.get("bytes")
                if isinstance(frame, bool):
                    frame = None
                if not isinstance(frame, int) and isinstance(payload, int) and not isinstance(payload, bool):
                    frame = payload + 4
                if isinstance(frame, int):
                    msg_type = str(event.get("msg_type", "?"))
                    self.flow_wire_bytes.inc(msg_type, value=float(frame))
                    self.flow_wire_frames.inc(msg_type)
            if etype == "msg.deliver":
                latency = event.get("latency")
                if isinstance(latency, (int, float)):
                    self.message_latency.observe(
                        str(event.get("src_region", "?")),
                        str(event.get("dst_region", "?")),
                        value=float(latency),
                    )
        elif etype == "span.end":
            self.span_duration.observe(
                str(event.get("span", "?")), value=float(event.get("dur", 0.0))
            )
            if event.get("span") == "request":
                self.requests.inc(str(event.get("outcome", "?")))
        elif etype in ("realloc.trigger", "realloc.apply"):
            self.reallocations.inc(etype[8:])
            if etype == "realloc.apply":
                tokens_after = event.get("tokens_after")
                if isinstance(tokens_after, int):
                    self.tokens_left.set(
                        str(event.get("node", "")), value=float(tokens_after)
                    )
        elif etype.startswith("fault."):
            self.faults.inc(etype[6:])
        elif etype.startswith("pledge."):
            node = str(event.get("node", ""))
            if etype == "pledge.open":
                self.pledge_opened.inc(node)
                self.pledges_open.set(node, value=1.0)
            elif etype == "pledge.settle":
                self.pledge_settled.inc(node, str(event.get("reason", "?")))
                self.pledges_open.set(node, value=0.0)
            elif etype == "pledge.recover":
                self.pledge_recoveries.inc(node)
        elif etype.startswith("liveness."):
            self.liveness_events.inc(etype[9:])
        elif etype == "invariant.check":
            self.invariant_checks.inc()
        elif etype == "invariant.violation":
            self.invariant_violations.inc(str(event.get("invariant", "?")))
        elif etype == "site.serve":
            tokens = event.get("tokens_left")
            node = str(event.get("node", ""))
            if isinstance(tokens, int):
                self.tokens_left.set(node, value=float(tokens))
            entity = event.get("entity")
            if isinstance(entity, str) and entity:
                self.demand_entity.inc(entity)
            if event.get("kind") == "acquire" and "waited" in event:
                waited = bool(event.get("waited"))
                status = event.get("status")
                if status == "granted":
                    path = "waited" if waited else "local"
                    self.demand_requests.inc(node, path)
                    split = self._locality.setdefault(node, [0, 0])
                    split[1 if waited else 0] += 1
                    self.demand_locality.set(
                        node, value=split[0] / (split[0] + split[1])
                    )
                elif status == "rejected":
                    self.demand_rejected.inc(node)
                    if waited:
                        self.demand_starved.inc(node)
        elif etype == "flow.backpressure":
            self.flow_backpressure.inc(str(event.get("queue", "?")))
        elif etype == "epoch.close":
            predicted = event.get("predicted")
            if isinstance(predicted, (int, float)) and not isinstance(
                predicted, bool
            ):
                node = str(event.get("node", ""))
                observed = float(event.get("demand", 0.0) or 0.0)
                error = float(predicted) - observed
                self.demand_pred_error.set(node, value=round(error, 6))
                if observed > 0:
                    acc = self._mape.setdefault(node, [0.0, 0.0])
                    acc[0] += abs(error) / observed
                    acc[1] += 1.0
                    self.demand_pred_mape.set(
                        node, value=round(100.0 * acc[0] / acc[1], 6)
                    )


def feed_registry(events: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Replay an event stream into a fresh registry (offline path)."""
    registry = MetricsRegistry()
    feed = TraceMetricsFeed(registry)
    for event in events:
        feed(event)
    return registry
