"""EventBus-fed liveness auditor with automated pledge recovery.

The watchdog rides the run's event stream as a bus *tap* — it observes
``span.begin``/``span.end`` (open protocol rounds, open requests) and
``pledge.open``/``pledge.settle`` (the promise-time pledge discipline of
DESIGN §2, "Redistribution ledger") into a bounded table of in-flight
work.  A kernel-scheduled *sweep* then walks that table: anything open
past its deadline becomes a
``liveness.*`` trace event, and a pledge gone stale while its site's
protocol sits idle is recovered on the spot through
:meth:`repro.core.ledger.RedistributionLedger.recover_pledge`.

The split matters for the bus contract: taps must observe and never
emit (re-entry), so all emission and all recovery actions happen inside
the sweep callback, which the kernel runs outside any tap context.
Detections are deduplicated per item — one stuck round produces one
event no matter how many sweeps it survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.bus import EventBus

# Deadlines for the liveness sweeps (sim-seconds).

#: How often the sweep runs.
SWEEP_INTERVAL = 5.0

#: An ``avantan.round`` span open longer than this is stuck.  Must
#: comfortably exceed election + cohort timeouts, or healthy recovery
#: churn gets flagged.
ROUND_DEADLINE = 12.0

#: A ``request`` span open longer than this is starved.  Align with the
#: client write-off timeout so detections precede write-offs.
REQUEST_DEADLINE = 8.0

#: A pledge unresolved longer than this is stale ...
PLEDGE_DEADLINE = 8.0

#: ... or unresolved across this many completed rounds on its site,
#: whichever detects first.
PLEDGE_ROUND_LIMIT = 3


@dataclass
class _Pledge:
    opened_at: float
    value_id: str
    rounds: int = 0
    reported: bool = False


@dataclass
class _Span:
    opened_at: float
    node: str
    trace_id: str | None = None
    role: str | None = None


class LivenessWatchdog:
    """Tap + periodic sweep; see the module docstring."""

    #: The event types the tap reads (the bus routes only these).
    TYPES = frozenset({"span.begin", "span.end", "pledge.open", "pledge.settle"})

    def __init__(self) -> None:
        self._open_rounds: dict[int, _Span] = {}
        self._open_requests: dict[int, _Span] = {}
        self._pledges: dict[str, _Pledge] = {}
        self._reported_rounds: set[int] = set()
        self._reported_requests: set[int] = set()
        #: Watched sites by name — the recovery surface.  Only actors
        #: exposing ``recover_pledge`` (Samya sites) are actionable; the
        #: rest still get detection coverage through their spans.
        self._sites: dict[str, Any] = {}
        self.stuck_rounds = 0
        self.starved_requests = 0
        self.stale_pledges = 0
        self.recoveries_driven = 0
        self.sweeps = 0

    # -- wiring ------------------------------------------------------------

    def watch(self, sites: list[Any]) -> None:
        """Register the actors whose pledges the sweep may recover."""
        for site in sites:
            self._sites[site.name] = site

    def install_periodic(self, kernel, bus, until: float) -> None:
        """Schedule repeated sweeps during a run (the checker idiom)."""
        interval = SWEEP_INTERVAL

        def sweep(time: float) -> None:
            self.sweep(kernel.now, bus)
            if time + interval <= until:
                kernel.schedule(interval, sweep, time + interval)

        kernel.schedule(interval, sweep, interval)

    # -- the tap (observe only, never emit) --------------------------------

    def tap(self) -> "LivenessWatchdog":
        return self

    def __call__(self, event: Mapping[str, Any]) -> None:
        etype = event.get("type")
        if etype == "span.begin":
            span = event.get("span")
            if span == "avantan.round":
                self._open_rounds[event["span_id"]] = _Span(
                    opened_at=float(event.get("ts", 0.0) or 0.0),
                    node=str(event.get("node", "")),
                    trace_id=event.get("trace_id"),
                    role=event.get("role"),
                )
            elif span == "request":
                self._open_requests[event["span_id"]] = _Span(
                    opened_at=float(event.get("ts", 0.0) or 0.0),
                    node=str(event.get("node", "")),
                    trace_id=event.get("trace_id"),
                )
        elif etype == "span.end":
            span = event.get("span")
            span_id = event.get("span_id")
            if span == "avantan.round":
                closed = self._open_rounds.pop(span_id, None)
                self._reported_rounds.discard(span_id)
                if closed is not None:
                    pledge = self._pledges.get(closed.node)
                    if pledge is not None:
                        # A round on the pledging site came and went with
                        # the pledge still open — the round-count axis of
                        # staleness.
                        pledge.rounds += 1
            elif span == "request":
                self._open_requests.pop(span_id, None)
                self._reported_requests.discard(span_id)
        elif etype == "pledge.open":
            self._pledges[str(event.get("node", ""))] = _Pledge(
                opened_at=float(event.get("ts", 0.0) or 0.0),
                value_id=str(event.get("value_id", "?")),
            )
        elif etype == "pledge.settle":
            self._pledges.pop(str(event.get("node", "")), None)

    # -- the sweep (kernel callback: may emit and act) ----------------------

    def sweep(self, now: float, bus) -> None:
        """One deadline pass over everything currently in flight."""
        if isinstance(bus, EventBus):
            bus.flush()  # ``Kernel.run`` holds it: catch the tables up
        self.sweeps += 1
        for span_id, item in self._open_rounds.items():
            age = now - item.opened_at
            if age < ROUND_DEADLINE or span_id in self._reported_rounds:
                continue
            self._reported_rounds.add(span_id)
            self.stuck_rounds += 1
            if bus is not None:
                bus.emit(
                    "liveness.stuck_round",
                    node=item.node,
                    age=age,
                    role=item.role or "?",
                    trace_id=item.trace_id,
                )
        for span_id, item in self._open_requests.items():
            age = now - item.opened_at
            if age < REQUEST_DEADLINE or span_id in self._reported_requests:
                continue
            self._reported_requests.add(span_id)
            self.starved_requests += 1
            if bus is not None:
                bus.emit(
                    "liveness.request_starved",
                    node=item.node,
                    age=age,
                    trace_id=item.trace_id,
                )
        # Recovery can synchronously settle a pledge (degenerate cluster:
        # trigger -> decide -> apply -> pledge.settle tap) and mutate the
        # table mid-iteration — walk a snapshot.
        for node, pledge in list(self._pledges.items()):
            age = now - pledge.opened_at
            if age < PLEDGE_DEADLINE and pledge.rounds < PLEDGE_ROUND_LIMIT:
                continue
            # Drive recovery on the stale pledge; a no-op unless the site
            # can (``recover_pledge``) and its protocol is idle.
            recovered = False
            site = self._sites.get(node)
            if site is not None and hasattr(site, "recover_pledge"):
                recovered = bool(site.recover_pledge(driver="watchdog"))
                if recovered:
                    self.recoveries_driven += 1
            if not pledge.reported:
                pledge.reported = True
                self.stale_pledges += 1
                if bus is not None:
                    bus.emit(
                        "liveness.pledge_stale",
                        node=node,
                        value_id=pledge.value_id,
                        age=age,
                        rounds=pledge.rounds,
                        recovered=recovered,
                    )

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """End-of-run rollup (lands in ``ExperimentResult``)."""
        return {
            "sweeps": self.sweeps,
            "stuck_rounds": self.stuck_rounds,
            "starved_requests": self.starved_requests,
            "stale_pledges": self.stale_pledges,
            "recoveries_driven": self.recoveries_driven,
            "open_rounds": len(self._open_rounds),
            "open_requests": len(self._open_requests),
            "open_pledges": len(self._pledges),
        }
