"""Tests for the redistribution round accounting (``RedistributionStats``)."""

import random

import pytest

from repro.core.avantan.base import Phase, Role
from repro.core.avantan.majority import AvantanMajority
from repro.core.config import AvantanVariant
from repro.obs.bus import EventBus, RingSink
from repro.sim.kernel import Kernel
from repro.sim.process import Timer

from tests.helpers import MiniCluster, acquire_burst


class StubHost:
    """The least an Avantan protocol needs; the test sets the clock."""

    name = "site-a"

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.now = 0.0

    def protocol_timer(self, callback) -> Timer:
        return Timer(self.kernel, callback)

    def protocol_rng(self):
        return random.Random(0)

    def apply_redistribution(self, value) -> None:
        pass

    def persist_protocol(self, state) -> None:
        pass

    def on_protocol_idle(self) -> None:
        pass

    def on_protocol_degraded(self) -> None:
        pass


def stub_protocol() -> AvantanMajority:
    return AvantanMajority(StubHost(), ["site-b", "site-c"])


class TestRoundLog:
    """A round opens at entry and closes once, at its decision or abort."""

    def test_begin_end_records_duration(self):
        protocol = stub_protocol()
        protocol.host.now = 10.0
        protocol._track_round_entry(Role.LEADER)
        protocol.host.now = 10.5
        protocol._finish_decided(None)
        stats = protocol.stats
        assert (stats.rounds_decided, stats.rounds_aborted) == (1, 0)
        assert stats.frozen_time == pytest.approx(0.5)
        assert stats.longest_round == pytest.approx(0.5)

    def test_role_promotion_keeps_one_record(self):
        protocol = stub_protocol()
        protocol.host.now = 1.0
        protocol._track_round_entry(Role.COHORT)
        protocol.host.now = 2.0
        protocol._track_round_entry(Role.LEADER)  # cohort promoted mid-round
        protocol.host.now = 3.0
        protocol._finish_aborted()
        stats = protocol.stats
        assert (stats.rounds_decided, stats.rounds_aborted) == (0, 1)
        assert stats.frozen_time == pytest.approx(2.0)

    def test_end_without_begin_is_noop(self):
        protocol = stub_protocol()
        protocol._finish_decided(None)
        stats = protocol.stats
        assert stats.completed == 1  # the counter row still sees it
        assert (stats.rounds_decided, stats.frozen_time) == (0, 0.0)

    def test_degraded_flag(self):
        protocol = stub_protocol()
        protocol._track_round_entry(Role.LEADER)
        protocol._enter_degraded()
        protocol._finish_decided(None)
        protocol._track_round_entry(Role.COHORT)
        protocol._finish_decided(None)
        assert protocol.stats.degraded_rounds == 1

    def test_crash_closes_the_round_uncounted(self):
        protocol = stub_protocol()
        protocol._track_round_entry(Role.LEADER)
        protocol.host.now = 5.0
        protocol.on_crash()
        protocol._finish_aborted()  # nothing is open any more
        assert (protocol.stats.rounds_aborted, protocol.stats.frozen_time) == (0, 0.0)

    def test_totals_stay_out_of_the_counter_row(self):
        assert set(stub_protocol().stats.as_dict()) == {
            "triggered", "completed", "aborted", "leader_rounds", "messages_sent"
        }


class TestRoundSummary:
    def test_aggregates_across_logs(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY)
        for site, (decided, aborted, frozen, longest) in zip(
            mini.sites, [(2, 1, 3.0, 1.5), (1, 0, 0.5, 0.5)]
        ):
            stats = site.protocol.stats
            stats.rounds_decided, stats.rounds_aborted = decided, aborted
            stats.frozen_time, stats.longest_round = frozen, longest
        mini.site(1).protocol.stats.degraded_rounds = 1
        assert mini.cluster.round_summary() == {
            "decided": 3,
            "aborted": 1,
            "mean_duration": pytest.approx(0.875),
            "max_duration": 1.5,
            "degraded_rounds": 1,
            "total_frozen_time": pytest.approx(3.5),
        }

    def test_empty(self):
        summary = MiniCluster().cluster.round_summary()
        assert summary["decided"] == 0
        assert summary["mean_duration"] == 0.0

    def test_every_round_counts_past_512(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY)
        mini.run(until=0.1)
        protocol = mini.site(0).protocol
        for _ in range(600):
            protocol._track_round_entry(Role.LEADER)
            protocol._finish_aborted()
        assert mini.cluster.round_summary()["aborted"] == 600


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
        stats = [site.protocol.stats for site in mini.sites]
        assert summary["decided"] == sum(s.rounds_decided for s in stats)
        assert summary["max_duration"] == max(s.longest_round for s in stats)
        # The hot site led its rounds and saw each of them end.
        hot = mini.site(0).protocol.stats
        assert hot.leader_rounds >= 1
        assert hot.rounds_decided + hot.rounds_aborted >= hot.leader_rounds

    def test_hot_site_record_shows_leader_role(self):
        """A round's entry role lives on its ``avantan.round`` span."""
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        sink = RingSink()
        mini.kernel.obs = EventBus(mini.kernel, sink)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 150))
        mini.run(until=30.0)
        roles = [
            event["role"]
            for event in sink.events()
            if event["type"] == "span.begin"
            and event["span"] == "avantan.round"
            and event["node"] == mini.site(0).name
        ]
        assert "leader" in roles

    def test_crash_closes_the_open_round(self):
        """A leader that crashes in its election and recovers idle times
        its next round from that round's own entry, not from the crash."""
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        mini.client_for(mini.site(0).region, acquire_burst(1.0, 150))
        leader = mini.site(0)
        mini.run(until=1.0)
        while leader.protocol.phase is not Phase.ELECTION:
            mini.run_more(until=mini.kernel.now + 0.0005)
        leader.crash()
        mini.run_more(until=mini.kernel.now + 0.5)
        leader.recover()
        assert leader.protocol.role is Role.IDLE
        mini.run_more(until=30.0)
        stats = leader.protocol.stats
        assert stats.rounds_decided >= 1
        # Rounds here take about 0.3 s; one timed from the crash reads 2.1 s.
        assert stats.longest_round < 1.0
