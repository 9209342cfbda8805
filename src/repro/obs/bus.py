"""The event bus, its sinks, and causal trace-id derivation.

The bus is deliberately tiny: an event is a plain dict, ``emit`` stamps
it with the substrate clock and hands it to one sink.  No threads, no
filtering of the sink — a trace is the full, ordered story of one run,
and post-processing (``repro.obs.summary``) does the aggregation.

Spans
-----
A span is a named interval recorded against the substrate clock:
``span_begin`` emits a ``span.begin`` event and returns an id,
``span_end`` emits the matching ``span.end`` carrying the duration.
Span ids are allocated from a per-bus counter, so a fixed-seed sim run
numbers its spans identically every time.  A span left open (a crash,
an experiment ending mid-round) simply never gets its end event — the
summarizer counts only completed spans.

Causal trace ids
----------------
``trace_id_of`` derives a stable correlation id from a payload's own
identity fields — request ids for the client path, read ids for §5.8
snapshot reads, ballots for Avantan and Paxos rounds, terms for Raft.
Derivation is structural (``getattr``), so baseline protocols get ids
for free and no protocol module imports this one.  Every message that
belongs to one logical flow therefore shares one id, and a client
request can be followed across sites, rounds, and redistribution flows
by filtering the trace on it.

Taps
----
Besides its one sink, a bus carries any number of *taps*: read-only
callables fed the events the sink writes.  Taps are how the
active-monitoring layer (:mod:`repro.obs.audit`, the invariant auditor,
and :mod:`repro.obs.registry`, the metrics registry) rides the live
stream without a second emit surface.  The delivery contract:

* The sink writes each event at emit time, so a crashed run's JSONL
  trace keeps a readable prefix.
* A tap with a class attribute ``TYPES`` (a frozenset) gets only those
  event types, one without gets every event; taps run in subscribe
  (plane) order, on events in emit order.
* Taps get each event before ``emit`` returns, unless the bus is *held*
  — by :meth:`repro.sim.kernel.Kernel.run`, for its whole loop.  Held
  events reach the taps in one batch at :data:`HOLD_LIMIT`, at
  ``flush()`` or when ``run`` returns; an event a tap emits meanwhile
  joins the next batch.  So a kernel callback that reads a tap-fed
  plane (the watchdog sweep, the animated ``repro top``) flushes first.
"""

from __future__ import annotations

import gzip
import itertools
import json
from collections import deque
from pathlib import Path
from typing import Any, Callable, Protocol

#: Held events that make the bus deliver to its taps (module docstring).
HOLD_LIMIT = 1024


class Sink(Protocol):
    """Where the bus writes events."""

    def write(self, event: dict[str, Any]) -> None:  # pragma: no cover
        ...

    def close(self) -> None:  # pragma: no cover
        ...


class NullSink:
    """Discards everything.

    Used when a run wants live consumers (auditor, metrics registry)
    but no on-disk trace: the bus still stamps and fans out events to
    its taps, the sink just never materialises them.
    """

    def write(self, event: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class RingSink:
    """Bounded in-memory sink (tests, ad-hoc inspection)."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)

    def write(self, event: dict[str, Any]) -> None:
        self._events.append(event)

    def close(self) -> None:
        pass

    def events(self) -> list[dict[str, Any]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink:
    """One JSON object per line; the on-disk trace format.

    Events are written eagerly (no buffering beyond the file object's)
    so a crashed run still leaves a readable prefix.  A path ending in
    ``.gz`` writes through gzip — traces compress ~10x and
    ``repro.obs.schema.read_trace`` reads both forms transparently.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.suffix == ".gz":
            self._fh = gzip.open(self.path, "wt", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, event: dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":"), default=str))
        self._fh.write("\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class EventBus:
    """Emit surface: stamps events with the substrate clock, one sink,
    and any number of read-only taps (see module docstring)."""

    __slots__ = (
        "clock", "sink", "_span_ids", "_open_spans", "_taps", "_routes", "_held"
    )

    def __init__(self, clock, sink: Sink) -> None:
        self.clock = clock
        self.sink = sink
        self._span_ids = itertools.count(1)
        #: span_id -> (name, node, started_at, trace_id)
        self._open_spans: dict[int, tuple[str, str, float, str | None]] = {}
        self._taps: list[Callable[[dict[str, Any]], None]] = []
        #: event type -> the taps that read it, built on first use.
        self._routes: dict[str, tuple[Callable[[dict[str, Any]], None], ...]] = {}
        #: Events awaiting the taps while the bus is held, else ``None``.
        self._held: list[dict[str, Any]] | None = None

    def subscribe(self, tap: Callable[[dict[str, Any]], None]) -> None:
        """Attach a live consumer (of its ``TYPES``, or of every event)."""
        self._taps.append(tap)
        self._routes = {}

    def _write(self, event: dict[str, Any]) -> None:
        self.sink.write(event)
        held = self._held
        if held is None:
            self._deliver((event,))
        else:
            held.append(event)
            if len(held) >= HOLD_LIMIT:
                self.flush()

    def _deliver(self, events) -> None:
        routes = self._routes
        for event in events:
            etype = event["type"]
            taps = routes.get(etype)
            if taps is None:
                taps = routes[etype] = tuple(
                    t for t in self._taps if etype in getattr(t, "TYPES", (etype,))
                )
            for tap in taps:
                tap(event)

    def hold(self) -> bool:
        """Queue tap delivery until :meth:`release`; False if already held."""
        if self._held is not None:
            return False
        self._held = []
        return True

    def flush(self) -> None:
        """Hand every held event to the taps now."""
        held = self._held
        if held:
            self._held = []
            self._deliver(held)

    def release(self) -> None:
        """Flush, then deliver at emit time again."""
        while self._held:
            self.flush()
        self._held = None

    # -- events ------------------------------------------------------------

    def emit(self, etype: str, node: str = "", **fields: Any) -> None:
        event: dict[str, Any] = {"ts": self.clock.now, "type": etype, "node": node}
        event.update(fields)
        self._write(event)

    # -- spans -------------------------------------------------------------

    def span_begin(
        self, span: str, node: str = "", trace_id: str | None = None, **attrs: Any
    ) -> int:
        span_id = next(self._span_ids)
        self._open_spans[span_id] = (span, node, self.clock.now, trace_id)
        event: dict[str, Any] = {
            "ts": self.clock.now,
            "type": "span.begin",
            "node": node,
            "span": span,
            "span_id": span_id,
        }
        if trace_id is not None:
            event["trace_id"] = trace_id
        event.update(attrs)
        self._write(event)
        return span_id

    def span_end(self, span_id: int, outcome: str = "ok", **attrs: Any) -> None:
        record = self._open_spans.pop(span_id, None)
        if record is None:
            return  # already ended, or begun before the bus was installed
        span, node, started_at, trace_id = record
        event: dict[str, Any] = {
            "ts": self.clock.now,
            "type": "span.end",
            "node": node,
            "span": span,
            "span_id": span_id,
            "dur": self.clock.now - started_at,
            "outcome": outcome,
        }
        if trace_id is not None:
            event["trace_id"] = trace_id
        event.update(attrs)
        self._write(event)

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (diagnostics)."""
        return len(self._open_spans)

    def close(self) -> None:
        self.sink.close()


def trace_id_of(payload: Any) -> str | None:
    """Stable causal id for a message payload, derived structurally.

    Returns ``None`` for payloads with no identity worth correlating on
    (heartbeats carry a ballot/term and do get one — that is the point:
    they belong to that round's story).
    """
    request = getattr(payload, "request", None)
    if request is not None:
        request_id = getattr(request, "request_id", None)
        if request_id is not None:
            return f"req-{request_id}"
    response = getattr(payload, "response", None)
    if response is not None:
        request_id = getattr(response, "request_id", None)
        if request_id is not None:
            return f"req-{request_id}"
    read_id = getattr(payload, "read_id", None)
    if read_id is not None:
        return f"read-{read_id}"
    ballot = getattr(payload, "ballot", None)
    if ballot is not None:
        return f"rnd-{_ballot_str(ballot)}"
    term = getattr(payload, "term", None)
    if term is not None:
        return f"term-{term}"
    borrow_id = getattr(payload, "borrow_id", None)
    if borrow_id is not None:
        # Demarcation borrow campaigns (BorrowRequest/BorrowGrant).
        return f"borrow-{borrow_id}"
    return None


def emit_message_event(
    obs: EventBus,
    etype: str,
    message: Any,
    region_names: dict[str, str],
    **extra: Any,
) -> None:
    """Emit one ``msg.*`` event for a transport envelope.

    The one shape of a ``msg.*`` event: used by the transport core
    (hence all three substrates) and by the fault layer for the
    envelopes it accounts itself, with region names by endpoint name.
    """
    src, dst = message.src, message.dst
    event: dict[str, Any] = {
        "ts": obs.clock.now, "type": etype, "node": "", "src": src, "dst": dst,
        "msg_type": message.kind, "msg_id": message.msg_id, **extra,
    }
    src_region = region_names.get(src)
    if src_region is not None:
        event["src_region"] = src_region
    dst_region = region_names.get(dst)
    if dst_region is not None:
        event["dst_region"] = dst_region
    if message.trace_id is not None:
        event["trace_id"] = message.trace_id
    obs._write(event)


def _ballot_str(ballot: Any) -> str:
    # Avantan: Ballot(num, site_id) dataclass; Paxos: (number, name) tuple.
    num = getattr(ballot, "num", None)
    if num is not None:
        return f"{num}.{getattr(ballot, 'site_id', '?')}"
    if isinstance(ballot, tuple) and len(ballot) == 2:
        return f"{ballot[0]}.{ballot[1]}"
    return str(ballot)
