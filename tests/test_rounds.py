"""Tests for the redistribution round tracer."""

import pytest

from repro.core.config import AvantanVariant
from repro.metrics.rounds import RoundLog, RoundOutcome, RoundSummary

from tests.helpers import MiniCluster, acquire_burst


class TestRoundLog:
    def test_begin_end_records_duration(self):
        log = RoundLog()
        log.begin("s", "leader", 10.0)
        log.end(RoundOutcome.DECIDED, 10.5)
        [record] = log.records()
        assert record.duration == pytest.approx(0.5)
        assert record.outcome is RoundOutcome.DECIDED

    def test_role_promotion_keeps_one_record(self):
        log = RoundLog()
        log.begin("s", "cohort", 1.0)
        log.begin("s", "leader", 2.0)  # cohort promoted mid-round
        log.end(RoundOutcome.ABORTED, 3.0)
        [record] = log.records()
        assert record.role == "cohort"
        assert record.started_at == 1.0

    def test_end_without_begin_is_noop(self):
        log = RoundLog()
        log.end(RoundOutcome.DECIDED, 1.0)
        assert log.records() == []

    def test_degraded_flag(self):
        log = RoundLog()
        log.begin("s", "leader", 0.0)
        log.mark_degraded()
        log.end(RoundOutcome.DECIDED, 1.0)
        assert log.records()[0].degraded

    def test_capacity_bound(self):
        log = RoundLog(capacity=3)
        for index in range(5):
            log.begin("s", "leader", float(index))
            log.end(RoundOutcome.DECIDED, float(index) + 0.1)
        assert len(log.records()) == 3


class TestRoundSummary:
    def test_aggregates_across_logs(self):
        logs = []
        for index in range(2):
            log = RoundLog()
            log.begin("s", "leader", 0.0)
            log.end(RoundOutcome.DECIDED, 1.0)
            log.begin("s", "cohort", 2.0)
            log.end(RoundOutcome.ABORTED, 2.5)
            logs.append(log)
        summary = RoundSummary.from_logs(logs)
        assert summary.decided == 2
        assert summary.aborted == 2
        assert summary.mean_duration == pytest.approx(0.75)
        assert summary.max_duration == pytest.approx(1.0)
        assert summary.total_frozen_time == pytest.approx(3.0)

    def test_empty(self):
        summary = RoundSummary.from_logs([])
        assert summary.decided == 0
        assert summary.mean_duration == 0.0


class TestLiveTracing:
    @pytest.mark.parametrize("variant", [AvantanVariant.MAJORITY, AvantanVariant.STAR])
    def test_redistribution_produces_round_records(self, variant):
        mini = MiniCluster(variant=variant, maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 150))
        mini.run(until=30.0)
        summary = mini.cluster.round_summary()
        assert summary["decided"] >= 1
        # Rounds are WAN-bounded: sub-second but not instant.
        assert 0.0 < summary["mean_duration"] < 5.0

    def test_hot_site_record_shows_leader_role(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 150))
        mini.run(until=30.0)
        records = mini.site(0).protocol.rounds.records()
        assert any(record.role == "leader" for record in records)
