"""Tests for the Samya site: serving, queueing, triggers, reads, recovery."""

import pytest

from repro.core.client import Operation
from repro.core import site as site_module
from repro.core.config import AvantanVariant
from repro.core.requests import RequestKind, RequestStatus
from repro.prediction.base import Predictor

from tests.helpers import MiniCluster, acquire_burst, fast_config, uniform_ops


class FixedPredictor(Predictor):
    """Predicts a constant demand; handy for forcing proactive triggers."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.updates = 0

    def update(self, value: float) -> None:
        self.updates += 1

    def forecast(self) -> float:
        return self.value


class TestLocalServing:
    def test_acquire_and_release_update_local_tokens(self):
        mini = MiniCluster(maximum=300)
        region = mini.site(0).region
        mini.client_for(
            region,
            [
                Operation(1.0, RequestKind.ACQUIRE, 10),
                Operation(2.0, RequestKind.RELEASE, 4),
            ],
        )
        mini.run(until=5.0)
        assert mini.site(0).state.tokens_left == 100 - 10 + 4
        assert mini.metrics.committed == 2

    def test_commit_latency_is_intra_region(self):
        mini = MiniCluster(maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=20, spacing=0.05))
        mini.run(until=5.0)
        summary = mini.metrics.latency_summary()
        assert summary.p90 < 0.005  # local RTT ~1.4 ms + service

    def test_no_constraint_mode_grants_everything(self):
        config = fast_config(enforce_constraint=False)
        mini = MiniCluster(maximum=10, config=config)
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=500))
        mini.run(until=10.0)
        assert mini.metrics.committed == 500
        assert mini.metrics.rejected == 0

    def test_no_redistribution_mode_rejects_on_exhaustion(self):
        config = fast_config(redistribute=False)
        mini = MiniCluster(maximum=300, config=config)
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=150))
        mini.run(until=10.0)
        assert mini.metrics.committed == 100  # the local allocation
        assert mini.metrics.rejected == 50
        totals = mini.cluster.redistribution_totals()
        assert totals["triggered"] == 0

    def test_oversized_acquire_rejected_not_crashing(self):
        config = fast_config(redistribute=False)
        mini = MiniCluster(maximum=300, config=config)
        mini.client_for(
            mini.site(0).region, [Operation(1.0, RequestKind.ACQUIRE, 1000)]
        )
        mini.run(until=5.0)
        assert mini.metrics.rejected == 1


class TestDemandTracking:
    def test_epoch_demand_fed_to_predictor(self):
        predictor = FixedPredictor(0.0)
        mini = MiniCluster(
            maximum=300, predictor_factory=lambda region, replica: predictor
        )
        mini.client_for(mini.site(0).region, acquire_burst(start=0.2, count=10, spacing=0.01))
        mini.run(until=5.5)
        # fast_config epoch = 1 s -> predictor saw ~5 epoch closes per site.
        assert predictor.updates >= 5

    def test_rejected_demand_still_counts_as_demand(self):
        config = fast_config(redistribute=False)
        mini = MiniCluster(maximum=30, config=config)
        site = mini.site(0)
        mini.client_for(site.region, acquire_burst(start=0.1, count=50))
        mini.run(until=0.9)
        assert site.history._current_epoch_demand == 50


class TestProactiveTrigger:
    def test_prediction_above_balance_triggers_redistribution(self):
        # Every site predicts demand of 150 but holds only 100.
        mini = MiniCluster(
            maximum=300,
            predictor_factory=lambda region, replica: FixedPredictor(150.0),
        )
        site = mini.site(0)
        mini.client_for(site.region, acquire_burst(start=1.0, count=5, spacing=0.2))
        mini.run(until=20.0)
        totals = mini.cluster.redistribution_totals()
        assert totals["proactive_triggers"] >= 1

    def test_low_prediction_never_triggers(self):
        mini = MiniCluster(
            maximum=300,
            predictor_factory=lambda region, replica: FixedPredictor(1.0),
        )
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=20, spacing=0.1))
        mini.run(until=20.0)
        assert mini.cluster.redistribution_totals()["proactive_triggers"] == 0

    def test_proactive_disabled_by_config(self):
        config = fast_config(proactive=False)
        mini = MiniCluster(
            maximum=300,
            config=config,
            predictor_factory=lambda region, replica: FixedPredictor(500.0),
        )
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=20, spacing=0.1))
        mini.run(until=20.0)
        assert mini.cluster.redistribution_totals()["proactive_triggers"] == 0


class TestReads:
    def test_read_returns_global_snapshot(self):
        mini = MiniCluster(maximum=300)
        region = mini.site(0).region
        client = mini.client_for(
            region,
            [
                Operation(1.0, RequestKind.ACQUIRE, 40),
                Operation(2.0, RequestKind.READ, 0),
            ],
        )
        responses = []
        original = client.on_response

        def spy(response, now):
            responses.append(response)
            original(response, now)

        client.on_response = spy
        mini.run(until=10.0)
        read_responses = [r for r in responses if r.value is not None]
        assert read_responses[0].value == 260

    def test_read_survives_peer_crash_via_timeout(self):
        mini = MiniCluster(maximum=300)
        mini.site(2).crash()
        client = mini.client_for(
            mini.site(0).region, [Operation(1.0, RequestKind.READ, 0)]
        )
        values = []
        client.on_response = lambda response, now: values.append(response.value)
        mini.run(until=10.0)
        # Crashed peer's 100 tokens missing from the degraded snapshot.
        assert values == [200]

    def test_reads_counted_separately(self):
        mini = MiniCluster(maximum=300)
        mini.client_for(mini.site(0).region, [Operation(1.0, RequestKind.READ, 0)])
        mini.run(until=10.0)
        assert mini.metrics.committed_reads == 1
        assert mini.metrics.committed == 0


class TestCrashRecovery:
    def test_recovered_site_restores_entity_state_from_store(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        mini.client_for(site.region, acquire_burst(start=1.0, count=30))
        mini.run(until=5.0)
        tokens_before = site.state.tokens_left
        site.crash()
        # Simulate in-memory corruption while down; recovery must reload.
        site.state.tokens_left = 999999
        site.recover()
        assert site.state.tokens_left == tokens_before

    def test_crashed_site_drops_queued_requests(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        site._pending.append(object())
        site.crash()
        assert len(site._pending) == 0

    def test_epoch_timer_resumes_after_recovery(self):
        predictor = FixedPredictor(0.0)
        mini = MiniCluster(
            maximum=300, predictor_factory=lambda region, replica: predictor
        )
        site = mini.site(0)
        mini.run(until=2.0)
        updates_before = predictor.updates
        site.crash()
        mini.run_more(until=5.0)
        site.recover()
        mini.run_more(until=8.0)
        assert predictor.updates > updates_before

    def test_sub_epoch_outage_leaves_one_epoch_chain(self):
        """A crash/recover inside one epoch must not leave the pre-crash
        epoch timer running next to the one ``recover`` starts."""
        mini = MiniCluster(
            maximum=300,
            predictor_factory=lambda region, replica: FixedPredictor(0.0),
        )
        site = mini.site(0)
        mini.run(until=12.2)
        site.crash()
        mini.run_more(until=12.5)
        site.recover()
        updates_before = site.predictor.updates
        mini.run_more(until=20.4)
        # One close per epoch_seconds (1.0): 13.5, 14.5, ... 19.5.
        assert site.predictor.updates - updates_before == 7


class TestServiceTimeModel:
    def test_back_to_back_requests_queue_behind_each_other(self, monkeypatch):
        monkeypatch.setattr(site_module, "SERVICE_TIME", 0.05)
        mini = MiniCluster(maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=10, spacing=0.0))
        mini.run(until=10.0)
        summary = mini.metrics.latency_summary()
        # Tenth request waits behind nine 50 ms services.
        assert summary.maximum > 0.45
