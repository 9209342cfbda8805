"""Core-protocol pledge discipline under faults.

A cohort that answers a foreign election has *pledged* its snapshot: the
leader may pool those tokens into a value that decides without the
cohort ever hearing about it.  These tests pin the port of the scale
subsystem's pledge discipline into ``repro.core.site``: the pledged
balance is frozen out of serving, the pledge settles exactly when the
outcome becomes knowable, survives a crash through the recovery WAL,
and conservation holds under message drops and one-way partitions.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.avantan.state import Ballot
from repro.core.config import AvantanVariant
from repro.core.entity import Entity
from repro.core.requests import RequestKind
from repro.faults.transport import FaultyTransport
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS
from repro.sim.kernel import Kernel

from tests.helpers import MiniCluster, acquire_burst, fast_config


class FaultyMini(MiniCluster):
    """A MiniCluster whose network is wrapped in a FaultyTransport."""

    def __init__(self, variant=AvantanVariant.MAJORITY, maximum: int = 300,
                 seed: int = 1, fault_seed: int = 11) -> None:
        # Rebuild the stack by hand: the faulty layer must wrap the sim
        # network *before* the cluster registers its actors on it.
        from repro.core.cluster import SamyaCluster
        from repro.metrics.hub import MetricsHub
        from repro.metrics.invariants import ConservationChecker

        self.kernel = Kernel(seed=seed)
        self.faulty = FaultyTransport(
            Network(self.kernel, NetworkConfig()), self.kernel, seed=fault_seed
        )
        self.network = self.faulty
        self.entity = Entity("VM", maximum)
        self.config = fast_config(variant)
        self.cluster = SamyaCluster(
            kernel=self.kernel,
            network=self.faulty,
            entity=self.entity,
            regions=tuple(PAPER_REGIONS[:3]),
            config=self.config,
        )
        self.metrics = MetricsHub()
        self.checker = ConservationChecker(maximum)
        self.checker.watch(self.cluster.sites)


def exhaustion_workload(mini, region_index: int = 0, count: int = 140):
    """Acquire well past one region's share: forces reactive rounds, so
    every other site answers foreign elections (and pledges)."""
    region = mini.sites[region_index].region
    return mini.client_for(region, acquire_burst(1.0, count))


def pledge_totals(mini):
    opened = sum(site.counters["pledges_opened"] for site in mini.sites)
    settled = sum(site.counters["pledge_settlements"] for site in mini.sites)
    return opened, settled


class TestCleanRunSettlement:
    def test_foreign_elections_pledge_and_decisions_settle(self):
        mini = MiniCluster(maximum=300)
        exhaustion_workload(mini)
        mini.run(until=30.0)
        opened, settled = pledge_totals(mini)
        assert opened > 0  # cohorts actually pledged
        assert settled == opened  # every outcome arrived
        assert all(site.unresolved_pledge is None for site in mini.sites)
        assert all(site.pledged_tokens == 0 for site in mini.sites)
        mini.check()

    def test_star_variant_settles_via_dead_ballots_too(self):
        mini = MiniCluster(variant=AvantanVariant.STAR, maximum=300)
        exhaustion_workload(mini)
        mini.run(until=30.0)
        opened, settled = pledge_totals(mini)
        assert opened > 0
        assert settled == opened
        assert all(site.unresolved_pledge is None for site in mini.sites)
        mini.check()


class TestPledgeUnderDrops:
    def test_dropped_protocol_messages_conserve_and_settle(self):
        mini = FaultyMini(seed=3)
        names = [site.name for site in mini.sites]
        mini.faulty.degrade(names, drop=0.25)
        mini.kernel.schedule(10.0, mini.faulty.restore)
        exhaustion_workload(mini)
        mini.run(until=60.0)
        assert mini.faulty.injected["nemesis-drop"] > 0
        opened, settled = pledge_totals(mini)
        assert opened > 0
        # Quiesced well past the heal: no site still holds a frozen
        # balance (the idle-path re-election resolved every pledge).
        assert settled == opened
        assert all(site.unresolved_pledge is None for site in mini.sites)
        mini.check()

    def test_duplicated_protocol_messages_are_harmless(self):
        mini = FaultyMini(seed=5)
        names = [site.name for site in mini.sites]
        mini.faulty.degrade(names, duplicate=0.4)
        mini.kernel.schedule(10.0, mini.faulty.restore)
        exhaustion_workload(mini)
        mini.run(until=60.0)
        assert mini.faulty.injected["duplicate"] > 0
        opened, settled = pledge_totals(mini)
        assert settled == opened
        mini.check()


class TestPledgeUnderOneWayPartition:
    def test_oneway_isolated_cohort_recovers_its_pledge(self):
        mini = FaultyMini(seed=7)
        target = mini.sites[1]
        rest = [site.name for site in mini.sites if site is not target]
        # Replies from the cohort flow out, but nothing (Accepts,
        # Decisions) flows back in — the pledge cannot settle until heal.
        mini.kernel.schedule(
            2.0, mini.faulty.isolate_oneway, rest, [target.name]
        )
        mini.kernel.schedule(12.0, mini.faulty.heal_oneway)
        exhaustion_workload(mini)
        mini.run(until=60.0)
        opened, settled = pledge_totals(mini)
        assert settled == opened
        assert all(site.unresolved_pledge is None for site in mini.sites)
        mini.check()


class TestRecoveryElectionStorm:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_fault_free_leader_rounds_track_genuine_triggers(self):
        # Ten sites, no faults: a leader round should answer a proactive
        # or reactive trigger.  A late responder's pledge sits on a ballot
        # whose value never pools it, and the idle site re-elects to
        # recover it, which opens new pledges in turn: 39 leader rounds
        # for 6 triggers (33 pledge recoveries) on this run.
        result = run_experiment(
            ExperimentConfig(
                system="samya-majority",
                seed=3,
                duration=120.0,
                sites_per_region=2,
                demand_scale=2.0,
                maximum=10_000,
            )
        )
        totals = result.redistributions
        genuine = totals["proactive_triggers"] + totals["reactive_triggers"]
        assert totals["leader_rounds"] <= 1.2 * genuine


class TestCrashDuringPledge:
    def _open_pledge(self, mini, site):
        """Deterministically put ``site`` in the pledged state: answer a
        foreign election the way ``snapshot_init_val`` does in vivo."""
        foreign = Ballot(5, mini.site(0).name)
        site.protocol.state.ballot_num = foreign
        site.snapshot_init_val()
        assert site.unresolved_pledge == foreign
        return foreign

    def test_pledged_balance_is_reserved_while_idle(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(1)
        self._open_pledge(mini, site)
        # Protocol inactive (we faked the promise), yet the full pledged
        # balance is reserved — the crash/recovery window must not serve.
        assert site.pledged_tokens == site.state.tokens_left
        assert site.reserved_tokens() == site.pledged_tokens
        assert site.available_tokens() == 0

    def test_wal_replay_restores_pledge_and_reelects(self):
        mini = MiniCluster(maximum=300)
        mini.run(until=0.5)  # start the cluster before the fault
        site = mini.site(1)
        foreign = self._open_pledge(mini, site)
        site.crash()
        site.recover()
        # The replayed pledge is intact and recovery re-elected at once.
        assert site.unresolved_pledge == foreign
        assert site.counters["pledge_recoveries"] >= 1
        mini.run_more(until=20.0)
        # The recovery election pooled the site into a fresh decided
        # value (or surfaced the pledged outcome): settled either way.
        assert site.unresolved_pledge is None
        assert site.counters["pledge_settlements"] >= 1
        mini.check()

    def test_disabled_wal_loses_the_pledge(self):
        """The deliberately-broken-recovery knob: with WAL appends
        discarded, a crash forgets the pledge — exactly what the nemesis
        ``--disable-wal`` mode exists to let the auditor catch."""
        mini = MiniCluster(maximum=300)
        mini.run(until=0.5)
        site = mini.site(1)
        site.wal.enabled = False
        self._open_pledge(mini, site)
        site.crash()
        site.recover()
        assert site.unresolved_pledge is None  # forgotten: unsafe state
        assert site.pledged_tokens == 0


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spend=st.integers(0, 120),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(1, 60)), max_size=16
    ),
    seed=st.integers(0, 200),
)
def test_pledged_balance_is_never_served(spend, ops, seed):
    """Property: while a pledge is unresolved, the site's balance never
    dips below the pledged amount — no sequence of acquires and releases
    can spend tokens the pledged round may have granted away."""
    from tests.test_site_degraded import forwarded

    mini = MiniCluster(maximum=300, seed=seed)
    site = mini.site(1)
    # Vary the pledged amount: serve some tokens away first.
    grant = max(0, site.state.tokens_left - spend)
    site.state.tokens_left = grant
    foreign = Ballot(3, mini.site(0).name)
    site.protocol.state.ballot_num = foreign
    site.snapshot_init_val()
    pledged = site.pledged_tokens
    assert pledged == grant
    for acquire, amount in ops:
        kind = RequestKind.ACQUIRE if acquire else RequestKind.RELEASE
        site._handle_client(forwarded(site, kind, amount))
        assert site.unresolved_pledge == foreign
        assert site.state.tokens_left >= pledged
        # The reserve may exceed the pledge floor (an acquire can
        # reactively start a round whose InitVal freezes the inflow
        # too) but never dips below it.
        assert site.available_tokens() <= site.state.tokens_left - pledged
