"""Online invariant auditing over the repro-trace/1 stream.

PR 2 made the trace a passive record; this module *watches* it.  An
:class:`InvariantAuditor` is an :class:`~repro.obs.bus.EventBus` tap (or
an offline reader via :func:`audit_events`) that checks, event by event,
the structural invariants every well-formed trace must satisfy and the
Samya safety arithmetic the trace carries:

Structural (any protocol, any substrate):

* ``clock-monotonic`` — timestamps never run backwards.
* ``span-open-close`` — every ``span.end`` matches an open
  ``span.begin`` with the same id and name; a span id is never opened
  twice.  (Spans left open at the end of a trace are *legal*: crashes
  truncate them by design.)
* ``untraced-message`` — every ``msg.*`` event carries a causal trace
  id; all protocol payloads have structural identity
  (``repro.obs.bus.trace_id_of``), so a missing id means an emit site
  lost the causal thread.
* ``message-accounting`` — per payload type, sends ≥ deliveries +
  drops at every prefix of the trace (a message cannot arrive more
  often than it was sent; in-flight messages at the end are fine).
* ``meta-first`` — ``run.meta`` opens the trace, exactly once.

Samya safety (Eq. 1 and token conservation, §3 of the paper):

* ``conservation`` — every ``invariant.check`` event's arithmetic must
  balance: settled + outstanding (+ transit) == M_e.  The checker
  (:class:`repro.metrics.invariants.ConservationChecker`) records the
  numbers; the auditor re-verifies them, so a forged or corrupted
  trace cannot claim a clean audit.
* ``eq1`` — clients never collectively hold more than M_e tokens (nor
  a negative amount).
* ``negative-tokens`` — no site ever serves from, or is reallocated
  to, a negative balance (``site.serve`` / ``realloc.apply``).
* ``reported-violation`` — any ``invariant.violation`` event a checker
  emitted mid-run is surfaced as an audit failure.

The auditor never raises and never emits: it records
:class:`Violation` rows, capped at :attr:`InvariantAuditor.max_recorded`
(counting continues past the cap).  The same instance serves three
deployments: subscribed to a live bus (sim or asyncio substrate),
driven by ``python -m repro trace FILE --audit`` over a file, or called
directly by tests on synthetic event lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to find the cause."""

    invariant: str
    detail: str
    ts: float
    index: int
    node: str = ""
    trace_id: str | None = None

    def __str__(self) -> str:
        where = f" node={self.node}" if self.node else ""
        tid = f" trace_id={self.trace_id}" if self.trace_id else ""
        return (
            f"[{self.invariant}] event {self.index} @ t={self.ts:.3f}"
            f"{where}{tid}: {self.detail}"
        )


class InvariantAuditor:
    """Streaming checker for structural and Samya safety invariants."""

    def __init__(self, max_recorded: int = 200) -> None:
        self.max_recorded = max_recorded
        self.violations: list[Violation] = []
        self.violation_count = 0
        self.events_seen = 0
        self.checks_verified = 0
        self._last_ts: float | None = None
        self._open_spans: dict[int, str] = {}
        self._sent: Counter[str] = Counter()
        self._arrived: Counter[str] = Counter()
        self._meta_seen = 0

    # -- reporting ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def _flag(
        self,
        invariant: str,
        detail: str,
        event: dict[str, Any],
    ) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(
                Violation(
                    invariant=invariant,
                    detail=detail,
                    ts=float(event.get("ts", 0.0) or 0.0),
                    index=self.events_seen - 1,
                    node=str(event.get("node", "")),
                    trace_id=event.get("trace_id"),
                )
            )

    def summary(self) -> str:
        verdict = "clean" if self.ok else f"{self.violation_count} violation(s)"
        return (
            f"audit: {verdict} over {self.events_seen} events "
            f"({len(self._open_spans)} span(s) left open, "
            f"{self.checks_verified} conservation check(s) re-verified)"
        )

    # -- the stream --------------------------------------------------------

    def observe(self, event: dict[str, Any]) -> None:
        self.events_seen += 1
        ts = event.get("ts")
        etype = event.get("type", "")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            if self._last_ts is not None and ts < self._last_ts:
                self._flag(
                    "clock-monotonic",
                    f"ts {ts} after {self._last_ts}",
                    event,
                )
            self._last_ts = float(ts)
        if etype == "run.meta":
            self._meta_seen += 1
            if self.events_seen != 1 or self._meta_seen > 1:
                self._flag("meta-first", "run.meta is not the sole opener", event)
        elif self.events_seen == 1:
            self._flag("meta-first", f"trace opens with {etype!r}", event)
        handler = self._HANDLERS.get(etype)
        if handler is not None:
            handler(self, event)

    __call__ = observe

    def finish(self) -> list[Violation]:
        """End-of-trace verdict; open spans are reported, not flagged."""
        return list(self.violations)

    def tap(self) -> "InvariantAuditor":
        return self

    def snapshot(self) -> list[str]:
        """One row per recorded violation; empty means a clean run."""
        return [str(violation) for violation in self.finish()]

    # -- per-type checks ---------------------------------------------------

    def _on_span_begin(self, event: dict[str, Any]) -> None:
        span_id = event.get("span_id")
        if span_id in self._open_spans:
            self._flag(
                "span-open-close",
                f"span_id {span_id} ({event.get('span')}) opened twice",
                event,
            )
            return
        self._open_spans[span_id] = event.get("span", "")

    def _on_span_end(self, event: dict[str, Any]) -> None:
        span_id = event.get("span_id")
        opened = self._open_spans.pop(span_id, None)
        if opened is None:
            self._flag(
                "span-open-close",
                f"span_id {span_id} ({event.get('span')}) closed but never opened",
                event,
            )
        elif opened != event.get("span"):
            self._flag(
                "span-open-close",
                f"span_id {span_id} opened as {opened!r}, "
                f"closed as {event.get('span')!r}",
                event,
            )
        dur = event.get("dur")
        if isinstance(dur, (int, float)) and dur < 0:
            self._flag("span-open-close", f"negative duration {dur}", event)

    def _on_msg(self, event: dict[str, Any]) -> None:
        etype = event["type"]
        msg_type = str(event.get("msg_type", "?"))
        if "trace_id" not in event:
            self._flag(
                "untraced-message",
                f"{etype} of {msg_type} carries no trace id",
                event,
            )
        if etype == "msg.send":
            self._sent[msg_type] += 1
            return
        self._arrived[msg_type] += 1
        if self._arrived[msg_type] > self._sent[msg_type]:
            self._flag(
                "message-accounting",
                f"{msg_type}: {self._arrived[msg_type]} delivered+dropped "
                f"but only {self._sent[msg_type]} sent",
                event,
            )
        latency = event.get("latency")
        if isinstance(latency, (int, float)) and latency < 0:
            self._flag("message-accounting", f"negative latency {latency}", event)

    def _on_invariant_check(self, event: dict[str, Any]) -> None:
        settled = event.get("settled")
        outstanding = event.get("outstanding")
        maximum = event.get("maximum")
        transit = event.get("transit", 0)
        if not all(
            isinstance(v, int) and not isinstance(v, bool)
            for v in (settled, outstanding, maximum, transit)
        ):
            self._flag("conservation", "non-integer audit arithmetic", event)
            return
        self.checks_verified += 1
        if settled + outstanding + transit != maximum:
            self._flag(
                "conservation",
                f"{settled} settled + {outstanding} outstanding "
                f"+ {transit} in transit != M_e={maximum}",
                event,
            )
        if outstanding < 0 or outstanding > maximum:
            self._flag(
                "eq1",
                f"clients hold {outstanding} of M_e={maximum}",
                event,
            )

    def _on_invariant_violation(self, event: dict[str, Any]) -> None:
        self._flag(
            "reported-violation",
            f"{event.get('invariant', '?')}: {event.get('detail', '')}",
            event,
        )

    def _on_tokens(self, event: dict[str, Any]) -> None:
        for fieldname in ("tokens_left", "tokens_after"):
            value = event.get(fieldname)
            if isinstance(value, int) and not isinstance(value, bool) and value < 0:
                self._flag(
                    "negative-tokens",
                    f"{event['type']} reports {fieldname}={value}",
                    event,
                )

    _HANDLERS = {
        "span.begin": _on_span_begin,
        "span.end": _on_span_end,
        "msg.send": _on_msg,
        "msg.deliver": _on_msg,
        "msg.drop": _on_msg,
        "invariant.check": _on_invariant_check,
        "invariant.violation": _on_invariant_violation,
        "site.serve": _on_tokens,
        "realloc.apply": _on_tokens,
    }


def audit_events(events: Iterable[dict[str, Any]]) -> InvariantAuditor:
    """Run a full offline audit over an event stream."""
    auditor = InvariantAuditor()
    for event in events:
        auditor.observe(event)
    auditor.finish()
    return auditor


def format_audit_report(auditor: InvariantAuditor) -> str:
    """Human-readable audit verdict, one violation per line."""
    lines = [auditor.summary()]
    lines.extend(str(violation) for violation in auditor.violations)
    hidden = auditor.violation_count - len(auditor.violations)
    if hidden > 0:
        lines.append(f"... and {hidden} more violation(s) not shown")
    return "\n".join(lines)
