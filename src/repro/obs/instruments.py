"""One instruments value: every observability plane of one deployment.

:class:`Instruments` alone decides which planes exist, attaches them,
writes their trace rollups and gathers their snapshots and ``/metrics``
text — for the core, live and scale harnesses alike (DESIGN.md §3).

* A bus exists iff a sink or ``trace_path`` is given or any of ``audit
  / metrics / perf / watchdog`` is asked: those four consume events, so
  without an on-disk trace a :class:`~repro.obs.bus.NullSink` discards
  what the taps have seen.  The registry feed and the demand tracker
  ride every bus (O(sites + K) state, no emits, no randomness) and
  fold disjoint numbers: a figure has one owner (DESIGN.md §3).
* Tap order is plane order: auditor, registry feed, demand, watchdog.
  The auditor is first so it sees every event before any other
  consumer could mutate shared state (none do today; the ordering is a
  contract, not a workaround).
* Flow has no live tap: it is fed at the transport seam (why, in the
  ``repro.obs.flow`` module docs).
* Parts take it through one verb, ``part.instrument(instruments)``,
  and cache only the refs their hot path reads, so the disabled path
  stays a single ``is None`` test per site.
"""

from __future__ import annotations

from typing import Any

from repro.core.requests import reset_request_ids
from repro.core.site import reset_read_ids
from repro.net.message import reset_msg_ids
from repro.obs import prof
from repro.obs.audit import InvariantAuditor
from repro.obs.bus import EventBus, JsonlSink, NullSink, Sink
from repro.obs.demand import DemandTracker
from repro.obs.flow import FlowTracker
from repro.obs.perf import PerfRecorder
from repro.obs.registry import STANDARD, MetricsRegistry, prometheus
from repro.resilience import LivenessWatchdog


class Instruments:
    """The planes of one run, from the flags the configs already have."""

    def __init__(
        self,
        *,
        sink: Sink | None = None,
        trace_path: str | None = None,
        audit: bool = False,
        metrics: bool = False,
        perf: bool = False,
        flow: bool = False,
        watchdog: bool = False,
        demand: bool = False,
    ) -> None:
        self._owns_sink = sink is None and trace_path is not None
        if self._owns_sink:
            sink = JsonlSink(trace_path)
        elif sink is None and (audit or metrics or perf or watchdog):
            sink = NullSink()
        self._sink = sink
        #: Built by :meth:`attach` (events are stamped off the clock).
        self.bus: EventBus | None = None
        self.auditor = InvariantAuditor() if audit else None
        self.registry = MetricsRegistry() if sink is not None else None
        self.demand = DemandTracker() if demand or sink is not None else None
        #: The tracker for hosts to feed by direct call, only when
        #: ``demand`` asked (why: ``ScaleSiteHost.demand``).
        self.host_demand = self.demand if demand else None
        self.perf = PerfRecorder() if perf else None
        self.flow = FlowTracker() if flow else None
        self.watchdog = LivenessWatchdog() if watchdog else None
        planes = {
            "audit": self.auditor,
            "metrics": self.registry,
            "demand": self.demand,
            "perf": self.perf,
            "flow": self.flow,
            "liveness": self.watchdog,
        }
        #: Present planes by snapshot key, in tap (and rollup) order.
        self.planes = {
            name: plane for name, plane in planes.items() if plane is not None
        }
        #: ``repro profile`` installs a process-wide event profiler; any
        #: sim kernel instrumented while it is active reports to it.
        self.profiler = prof.active()
        self._parts: tuple = ()

    # -- attach / detach ----------------------------------------------------

    def attach(self, clock, *parts) -> None:
        """Instrument one deployment — its clock, its transport, any
        hosts — before it sends its first message."""
        # Fresh envelope, request and read ids per deployment: traces
        # record them and the flow plane accounts encoded bytes (id digit
        # count), so a fixed-seed run must not depend on what ran
        # earlier in the process (see repro.net.message module docs).
        reset_msg_ids()
        reset_request_ids()
        reset_read_ids()
        if self._sink is not None:
            self.bus = EventBus(clock, self._sink)
            for tap in self._verbs("tap"):
                self.bus.subscribe(tap())
            if self.perf is not None:
                # Perf forces a bus, so a registry feed: its span
                # histograms are the perf table's span rows.
                _, name, labels, help = STANDARD["span_duration"]
                self.perf.spans = self.registry.histogram(name, help, labels).cells
        self._parts = (clock, *parts)
        for part in self._parts:
            part.instrument(self)

    def start(self, servers: list, until: float) -> None:
        """Schedule the periodic work of planes that drive the run (the
        watchdog's sweeps recover stale pledges on ``servers``)."""
        if self.watchdog is not None:
            self.watchdog.watch(servers)
            self.watchdog.install_periodic(self.bus.clock, self.bus, until)

    def close(self) -> None:
        """Detach every part and close a sink this value opened.

        Idempotent, and safe on a run that died half-built — the codec
        recorder a TCP transport installs is module-global.
        """
        off = Instruments()
        for part in self._parts:
            part.instrument(off)
        self._parts = ()
        if self._owns_sink:
            self._sink.close()

    # -- collect ------------------------------------------------------------

    def _verbs(self, verb: str) -> list:
        """The bound ``verb`` of every present plane that has one — a
        plane implements only what it has (flow has no ``tap``, the
        auditor no ``rollup``)."""
        return [
            getattr(plane, verb)
            for plane in self.planes.values()
            if hasattr(plane, verb)
        ]

    def collect(self, **run_end: Any) -> dict[str, Any]:
        """Write the trace tail, close, and return :meth:`snapshots`.

        The tail is the ``demand.*`` then ``flow.*`` rollups, then a
        ``run.end`` carrying ``run_end`` when the harness gives any.
        The caller owns the bus, so none of this is tap re-entry."""
        bus = self.bus
        if bus is not None:
            for rollup in self._verbs("rollup"):
                rollup(bus)
            if run_end:
                bus.emit("run.end", **run_end, open_spans=bus.open_spans)
        self.close()
        return self.snapshots()

    def snapshots(self) -> dict[str, Any]:
        """``{plane name: snapshot}`` for every present plane."""
        return {name: plane.snapshot() for name, plane in self.planes.items()}

    def prometheus(self) -> str:
        """One ``/metrics`` scrape: the families of every present plane
        that has any (registry, demand, perf, flow), through the one
        writer."""
        return prometheus(
            family
            for families in self._verbs("families")
            for family in families()
        )
