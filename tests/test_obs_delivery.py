"""The event bus's delivery contract (``repro.obs.bus`` module docs).

The sink sees every event at emit time; taps see the event types they
declare, in emit order — at once outside ``Kernel.run``, in batches
while it dispatches.  The last test pins that this changes nothing a
plane ends up knowing: the live taps of an audited nemesis run equal an
offline replay of its trace.
"""

from collections import Counter

import pytest

from repro.core.site import SamyaSite
from repro.faults import Nemesis, NemesisConfig
from repro.faults.transport import FaultyTransport
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.harness.nemesis import GRACE_MARGIN
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS
from repro.obs import RingSink, audit_events, feed_registry, track_demand
from repro.obs.bus import HOLD_LIMIT
from repro.obs.instruments import Instruments
from repro.resilience import LivenessWatchdog
from repro.resilience import watchdog as watchdog_module
from repro.sim.kernel import Kernel
from repro.workload.trace import TraceConfig


class Recorder:
    """A tap that keeps the type of every event it is handed."""

    def __init__(self) -> None:
        self.seen: list[str] = []

    def __call__(self, event) -> None:
        self.seen.append(event["type"])


def held_kernel():
    """A kernel instrumented with a bus, plus that bus, its sink and a
    recording tap subscribed after the standard ones."""
    kernel = Kernel(seed=1)
    sink = RingSink()
    instruments = Instruments(sink=sink)
    instruments.attach(kernel)
    recorder = Recorder()
    instruments.bus.subscribe(recorder)
    return kernel, instruments.bus, sink, recorder


class TestHeldDelivery:
    def test_taps_see_emit_order_held_or_not(self):
        kernel, bus, sink, recorder = held_kernel()
        bus.emit("a.before")
        kernel.schedule(1.0, lambda: (bus.emit("b.held"), bus.emit("c.held")))
        kernel.schedule(2.0, bus.emit, "d.held")
        kernel.run(until=3.0)
        bus.emit("e.after")
        assert recorder.seen == ["a.before", "b.held", "c.held", "d.held", "e.after"]
        assert [event["type"] for event in sink.events()] == recorder.seen

    def test_sink_writes_at_emit_time_taps_at_flush(self):
        kernel, bus, sink, recorder = held_kernel()
        observed = {}

        def reader() -> None:
            bus.emit("x.one")
            bus.emit("x.two")
            observed["sink"] = len(sink)
            observed["before_flush"] = list(recorder.seen)
            bus.flush()
            observed["after_flush"] = list(recorder.seen)

        kernel.schedule(1.0, reader)
        kernel.run()
        assert observed["sink"] == 2
        assert observed["before_flush"] == []
        assert observed["after_flush"] == ["x.one", "x.two"]

    def test_emit_outside_run_is_delivered_at_once(self):
        kernel, bus, _, recorder = held_kernel()
        kernel.run(until=1.0)
        bus.emit("x.outside")
        assert recorder.seen == ["x.outside"]

    def test_burst_is_flushed_at_the_bound(self):
        kernel, bus, _, recorder = held_kernel()
        observed = {}

        def burst() -> None:
            for _ in range(HOLD_LIMIT + 1):
                bus.emit("x.burst")
            observed["inside"] = len(recorder.seen)

        kernel.schedule(1.0, burst)
        kernel.run()
        assert HOLD_LIMIT == 1024
        assert observed["inside"] == HOLD_LIMIT
        assert len(recorder.seen) == HOLD_LIMIT + 1

    def test_tap_emitting_during_a_flush_lands_in_the_next_batch(self):
        kernel, bus, sink, recorder = held_kernel()

        def echo(event) -> None:
            if event["type"] == "x.ping":
                bus.emit("x.pong")

        bus.subscribe(echo)
        observed = {}

        def reader() -> None:
            bus.emit("x.ping")
            bus.emit("x.other")
            bus.flush()
            observed["first"] = list(recorder.seen)
            bus.flush()
            observed["second"] = list(recorder.seen)

        kernel.schedule(1.0, reader)
        kernel.run()
        assert observed["first"] == ["x.ping", "x.other"]
        assert observed["second"] == ["x.ping", "x.other", "x.pong"]
        assert [event["type"] for event in sink.events()] == observed["second"]

    def test_watchdog_sweep_flushes_before_it_reads(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "SWEEP_INTERVAL", 2.0)
        monkeypatch.setattr(watchdog_module, "REQUEST_DEADLINE", 1.0)
        kernel, bus, _, _ = held_kernel()
        watchdog = LivenessWatchdog()
        bus.subscribe(watchdog)
        watchdog.install_periodic(kernel, bus, until=2.0)
        span = bus.span_begin("request", node="client-a")
        # Ends before the sweep at t=2, while the kernel holds the bus: a
        # sweep reading unflushed tables would call it starved.
        kernel.schedule(1.5, bus.span_end, span)
        kernel.run(until=3.0)
        assert watchdog.sweeps == 1
        assert watchdog.starved_requests == 0

    def test_step_delivers_before_it_returns(self):
        kernel, bus, _, recorder = held_kernel()
        kernel.schedule(1.0, bus.emit, "x.step")
        assert kernel.step()
        assert recorder.seen == ["x.step"]


class TestRoutes:
    def test_a_tap_gets_only_the_types_it_declares(self):
        kernel, bus, _, everything = held_kernel()

        class SpanEnds(Recorder):
            TYPES = frozenset({"span.end"})

        ends = SpanEnds()
        bus.emit("x.early")  # builds the route for x.early first
        bus.subscribe(ends)  # ... which subscribe must invalidate
        span = bus.span_begin("request")
        bus.span_end(span)
        bus.emit("x.early")
        assert ends.seen == ["span.end"]
        assert everything.seen == ["x.early", "span.begin", "span.end", "x.early"]


class TestReadIds:
    @pytest.mark.usefixtures("quick_window")
    def test_same_seed_runs_with_reads_write_identical_events(self):
        def events():
            sink = RingSink()
            config = ExperimentConfig(
                duration=20.0,
                seed=2,
                trace=TraceConfig(days=2.0),
                read_ratio=0.3,
            )
            Experiment(config, trace_sink=sink).run()
            return sink.events()

        first = events()
        assert any(event.get("span") == "read" for event in first)
        assert events() == first


class TestReplayEquivalence:
    def test_live_taps_equal_an_offline_replay(self):
        seed, duration, request_timeout = 7, 60.0, 10.0
        schedule = Nemesis(
            seed, tuple(PAPER_REGIONS), NemesisConfig(duration=duration, quiet_period=10.0)
        ).schedule()
        kernel = Kernel(seed=seed)
        network = FaultyTransport(Network(kernel, NetworkConfig()), kernel, seed=seed)
        sink = RingSink()
        experiment = Experiment(
            ExperimentConfig(
                system="samya-majority",
                seed=seed,
                duration=duration,
                # Scarce tokens: rounds, pledges and recoveries in 60 s.
                maximum=300,
                faults=schedule,
                audit=True,
                flow=True,
                watchdog=True,
                request_timeout=request_timeout,
            ),
            kernel=kernel,
            network=network,
            trace_sink=sink,
        )
        degraded = [server.name for server in experiment.servers]
        network.degrade(degraded, drop=0.05, duplicate=0.02)
        kernel.schedule(max(fault.time for fault in schedule), network.restore, degraded)
        experiment.start()
        kernel.run(until=duration + request_timeout + GRACE_MARGIN)
        for client in experiment.clients:
            client._expire_stale_inflight()
        experiment.collect()
        assert all(isinstance(server, SamyaSite) for server in experiment.servers)

        events = sink.events()
        instruments = experiment.instruments
        types = Counter(event["type"] for event in events)
        for etype in ("msg.deliver", "site.serve", "realloc.trigger", "pledge.open"):
            assert types[etype] > 0, etype

        assert instruments.registry.snapshot() == feed_registry(events).snapshot()

        auditor, replayed = instruments.auditor, audit_events(events)
        assert auditor.violations == replayed.violations
        assert auditor.events_seen == replayed.events_seen == len(events)
        assert auditor.checks_verified == replayed.checks_verified > 0

        assert instruments.demand.snapshot() == track_demand(events).snapshot()

        # A fresh watchdog folds the tap side; the sweep side (counters a
        # replay cannot drive) must match the liveness events it emitted.
        watchdog, fresh = instruments.watchdog, LivenessWatchdog()
        for event in events:
            fresh(event)
        live, folded = watchdog.snapshot(), fresh.snapshot()
        for key in ("open_rounds", "open_requests", "open_pledges"):
            assert live[key] == folded[key], key
        assert live["sweeps"] > 0
        assert live["stuck_rounds"] == types["liveness.stuck_round"]
        assert live["starved_requests"] == types["liveness.request_starved"]
        assert live["stale_pledges"] == types["liveness.pledge_stale"]
