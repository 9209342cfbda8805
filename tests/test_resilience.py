"""Liveness watchdog: detection, dedup, and automated pledge recovery.

The watchdog is a bus tap (observe-only) plus a kernel-scheduled sweep
(may emit and act).  These tests drive both surfaces directly with
synthetic events, then check the harness wiring end to end: the
``request_timeout`` knob reaches clients, ``watchdog=True`` builds and
installs the auditor, and pledge/liveness events land in the metrics
registry.
"""

from types import SimpleNamespace

from repro.obs.bus import EventBus, RingSink
from repro.obs.registry import MetricsRegistry, TraceMetricsFeed
from repro.resilience import LivenessWatchdog
from repro.resilience import watchdog as watchdog_module
from repro.sim.kernel import Kernel


class RecordingBus:
    """The sweep's emit surface, without a kernel or a sink."""

    def __init__(self) -> None:
        self.events: list[tuple[str, dict]] = []

    def emit(self, etype: str, node: str = "", **fields) -> None:
        fields["node"] = node
        self.events.append((etype, fields))

    def of(self, etype: str) -> list[dict]:
        return [fields for t, fields in self.events if t == etype]


class StubSite:
    def __init__(self, name: str = "site-x", succeed: bool = True) -> None:
        self.name = name
        self.succeed = succeed
        self.recover_calls: list[str] = []

    def recover_pledge(self, driver: str = "idle") -> bool:
        self.recover_calls.append(driver)
        return self.succeed


def span_begin(span, span_id, ts, node="site-a", **extra):
    event = {"type": "span.begin", "span": span, "span_id": span_id,
             "ts": ts, "node": node}
    event.update(extra)
    return event


def span_end(span, span_id, ts):
    return {"type": "span.end", "span": span, "span_id": span_id, "ts": ts}


class TestStuckRoundDetection:
    def test_round_past_deadline_is_flagged_once(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "ROUND_DEADLINE", 10.0)
        watchdog = LivenessWatchdog()
        bus = RecordingBus()
        watchdog(span_begin("avantan.round", 1, ts=0.0, role="leader"))
        watchdog.sweep(5.0, bus)  # young: quiet
        assert bus.of("liveness.stuck_round") == []
        watchdog.sweep(11.0, bus)
        watchdog.sweep(20.0, bus)  # same span: deduped
        stuck = bus.of("liveness.stuck_round")
        assert len(stuck) == 1
        assert stuck[0]["role"] == "leader"
        assert watchdog.stuck_rounds == 1

    def test_closed_round_is_never_flagged(self):
        watchdog = LivenessWatchdog()
        bus = RecordingBus()
        watchdog(span_begin("avantan.round", 1, ts=0.0))
        watchdog(span_end("avantan.round", 1, ts=3.0))
        watchdog.sweep(100.0, bus)
        assert bus.of("liveness.stuck_round") == []
        assert watchdog.snapshot()["open_rounds"] == 0


class TestStarvedRequestDetection:
    def test_old_open_request_is_flagged(self):
        watchdog = LivenessWatchdog()  # REQUEST_DEADLINE = 8.0
        bus = RecordingBus()
        watchdog(span_begin("request", 7, ts=0.0, node="client-a"))
        watchdog(span_begin("request", 8, ts=6.0, node="client-a"))
        watchdog.sweep(9.0, bus)
        starved = bus.of("liveness.request_starved")
        assert len(starved) == 1  # only the old one
        assert watchdog.starved_requests == 1


class TestStalePledgeRecovery:
    def test_stale_pledge_drives_recovery_on_the_site(self):
        watchdog = LivenessWatchdog()  # PLEDGE_DEADLINE = 8.0
        site = StubSite("site-a")
        watchdog.watch([site])
        bus = RecordingBus()
        watchdog({"type": "pledge.open", "node": "site-a", "ts": 0.0,
                  "value_id": "3.site-b"})
        watchdog.sweep(4.0, bus)  # young: untouched
        assert site.recover_calls == []
        watchdog.sweep(9.0, bus)
        assert site.recover_calls == ["watchdog"]
        stale = bus.of("liveness.pledge_stale")
        assert len(stale) == 1
        assert stale[0]["recovered"] is True
        assert watchdog.recoveries_driven == 1

    def test_settled_pledge_is_forgotten(self):
        watchdog = LivenessWatchdog()
        site = StubSite("site-a")
        watchdog.watch([site])
        bus = RecordingBus()
        watchdog({"type": "pledge.open", "node": "site-a", "ts": 0.0,
                  "value_id": "3.site-b"})
        watchdog({"type": "pledge.settle", "node": "site-a", "ts": 1.0,
                  "value_id": "3.site-b"})
        watchdog.sweep(100.0, bus)
        assert site.recover_calls == []
        assert bus.of("liveness.pledge_stale") == []

    def test_round_limit_detects_before_the_deadline(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "PLEDGE_DEADLINE", 1e9)
        monkeypatch.setattr(watchdog_module, "PLEDGE_ROUND_LIMIT", 2)
        watchdog = LivenessWatchdog()
        bus = RecordingBus()
        watchdog({"type": "pledge.open", "node": "site-a", "ts": 0.0,
                  "value_id": "3.site-b"})
        # Two full rounds on the pledging site while the pledge sits.
        for span_id in (31, 32):
            watchdog(span_begin("avantan.round", span_id, ts=1.0, node="site-a"))
            watchdog(span_end("avantan.round", span_id, ts=2.0))
        watchdog.sweep(3.0, bus)
        stale = bus.of("liveness.pledge_stale")
        assert len(stale) == 1
        assert stale[0]["rounds"] == 2

    def test_recovery_disabled_still_detects(self):
        # A watched actor without ``recover_pledge`` (a baseline server)
        # offers no recovery: its stale pledge is still reported.
        watchdog = LivenessWatchdog()
        site = SimpleNamespace(name="site-a")
        watchdog.watch([site])
        bus = RecordingBus()
        watchdog({"type": "pledge.open", "node": "site-a", "ts": 0.0,
                  "value_id": "9.site-b"})
        watchdog.sweep(10.0, bus)  # past PLEDGE_DEADLINE
        assert watchdog.recoveries_driven == 0
        assert bus.of("liveness.pledge_stale")[0]["recovered"] is False


class TestPeriodicInstall:
    def test_sweeps_ride_the_kernel(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "SWEEP_INTERVAL", 2.0)
        monkeypatch.setattr(watchdog_module, "REQUEST_DEADLINE", 1.0)
        kernel = Kernel(seed=1)
        sink = RingSink()
        bus = EventBus(kernel, sink)
        watchdog = LivenessWatchdog()
        bus.subscribe(watchdog)
        watchdog.install_periodic(kernel, bus, until=10.0)
        span = bus.span_begin("request", node="client-a")
        kernel.run(until=11.0)
        assert watchdog.sweeps == 5
        # The starved request was detected through the real bus, and the
        # detection itself fed back through the tap without reentry.
        starved = [e for e in sink.events()
                   if e["type"] == "liveness.request_starved"]
        assert len(starved) == 1
        bus.span_end(span, outcome="granted")
        assert watchdog.snapshot()["open_requests"] == 0


class TestRegistryFamilies:
    def test_pledge_and_liveness_events_hit_counters(self):
        registry = MetricsRegistry()
        feed = TraceMetricsFeed(registry)
        feed({"type": "pledge.open", "node": "site-a", "ts": 0.0,
              "value_id": "3.site-b", "amount": 40})
        feed({"type": "pledge.recover", "node": "site-a", "ts": 1.0,
              "value_id": "3.site-b", "driver": "watchdog"})
        feed({"type": "pledge.settle", "node": "site-a", "ts": 2.0,
              "value_id": "3.site-b", "reason": "decided"})
        feed({"type": "liveness.pledge_stale", "node": "site-a", "ts": 1.0,
              "value_id": "3.site-b", "age": 9.0})
        snap = registry.snapshot()
        assert snap['repro_pledge_opened_total{node="site-a"}'] == 1.0
        assert snap[
            'repro_pledge_settled_total{node="site-a",reason="decided"}'
        ] == 1.0
        assert snap['repro_pledge_recoveries_total{node="site-a"}'] == 1.0
        assert snap['repro_pledges_open{node="site-a"}'] == 0.0
        assert snap['repro_liveness_events_total{kind="pledge_stale"}'] == 1.0


class TestHarnessWiring:
    def _config(self, **overrides):
        from repro.harness.experiment import ExperimentConfig

        defaults = dict(duration=5.0, compressed_interval=1.0,
                        predictor="none", maximum=500)
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_request_timeout_reaches_every_client(self):
        from repro.harness.experiment import Experiment

        experiment = Experiment(self._config(request_timeout=3.5))
        assert experiment.clients
        assert all(c.request_timeout == 3.5 for c in experiment.clients)

    def test_watchdog_builds_and_snapshots(self):
        from repro.harness.experiment import Experiment

        experiment = Experiment(self._config(watchdog=True, audit=True))
        assert experiment.instruments.watchdog is not None
        result = experiment.run()
        assert result.liveness_snapshot is not None
        assert result.liveness_snapshot["sweeps"] >= 1

    def test_watchdog_alone_forces_the_bus_and_moves_nothing(self):
        # The watchdog consumes events, so on its own it must bring a
        # (NullSink) bus with it — and a bus must not move results.
        from repro.harness.experiment import Experiment, ExperimentConfig

        watched = Experiment(ExperimentConfig(duration=5, watchdog=True)).run()
        bare = Experiment(ExperimentConfig(duration=5)).run()
        assert watched.liveness_snapshot["sweeps"] >= 1
        assert bare.liveness_snapshot is None
        assert (watched.committed, watched.rejected, watched.redistributions) == (
            bare.committed, bare.rejected, bare.redistributions
        )

    def test_expired_request_emits_liveness_event(self):
        from repro.harness.experiment import Experiment

        experiment = Experiment(
            self._config(request_timeout=1.0, audit=True,
                         faults=()),
        )
        client = experiment.clients[0]
        # Strand one request by hand: in flight, far past the timeout.
        from repro.core.requests import ClientRequest, RequestKind

        request = ClientRequest(
            kind=RequestKind.ACQUIRE, entity_id="VM", amount=1,
            client=client.name, region=client.region.value, issued_at=0.0,
        )
        client._inflight[request.request_id] = request
        experiment.kernel.run(until=5.0)
        client._expire_stale_inflight()
        assert client.unanswered() == 0
        snap = experiment.instruments.registry.snapshot()
        assert snap.get(
            'repro_liveness_events_total{kind="request_expired"}', 0.0
        ) >= 1.0
