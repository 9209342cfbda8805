"""The one redistribution ledger, over both storage representations.

``SamyaSite`` runs :class:`~repro.core.ledger.RedistributionLedger` over a
plain ``EntityState``; the scale adapter runs the same code over an
``EntityView`` row.  The unit suite drives one pledge / apply sequence
over both and holds them to the same numbers; the scale crash test is
the twin of ``test_core_pledge.py::TestCrashDuringPledge``; the last
test pins that neither host re-implements what the ledger owns.
"""

import pytest

from repro.core.avantan.majority import AvantanMajority
from repro.core.avantan.state import AcceptValue, Ballot
from repro.core.entity import EntityState, SiteTokenState, TokenError
from repro.core.ledger import RedistributionLedger
from repro.core.reallocation import redistribute_tokens
from repro.core.site import SamyaSite
from repro.scale.entity_table import EntityTable
from repro.scale.harness import (
    ScaleConfig,
    audit_conservation,
    build_scale_deployment,
)
from repro.scale.site import _EntityProtocolHost
from repro.sim.kernel import Kernel
from repro.sim.process import Timer

A, B, C = "a", "b", "c"


class BareHost(RedistributionLedger):
    """The least a ledger needs: identity, a clock and the transport half
    of ``AvantanHost``.  Hooks only record that they ran."""

    def __init__(self, state: EntityState) -> None:
        super().__init__(state)
        self.name = A
        self.kernel = Kernel()
        self.log: list[tuple] = []
        self.drains: list[bool] = []
        self.protocol = AvantanMajority(self, [B, C])

    @property
    def now(self) -> float:
        return self.kernel.now

    def protocol_send(self, dst, payload) -> None:
        pass

    def protocol_timer(self, callback) -> Timer:
        return Timer(self.kernel, callback)

    def protocol_rng(self):
        return self.kernel.rng.stream(self.name)

    def persist_protocol(self, state) -> None:
        pass

    def drain_pending(self, degraded: bool) -> None:
        self.drains.append(degraded)

    def pledge_opened(self, ballot, amount) -> None:
        self.log.append(("open", ballot, amount))

    def pledge_settled(self, ballot, reason) -> None:
        self.log.append(("settle", ballot, reason))

    def pledge_recovering(self, ballot, driver) -> None:
        self.log.append(("recover", ballot, driver))

    def redistribution_applied(self, value, granted, tokens_before) -> None:
        self.log.append(("apply", value.value_id, granted is not None, tokens_before))


def entity_state() -> EntityState:
    return EntityState("VM", 100)


def neighbours_table() -> EntityTable:
    """The ledger's entity as the middle row of three."""
    table = EntityTable()
    table.add("other", 7)
    table.add("VM", 100)
    table.add("another", 9)
    return table


def entity_view() -> EntityState:
    return neighbours_table().view(1)


@pytest.fixture(params=[entity_state, entity_view], ids=["state", "view"])
def host(request) -> BareHost:
    return BareHost(request.param())


def value(ballot: Ballot, *states: tuple[str, int, int]) -> AcceptValue:
    return AcceptValue(
        value_id=ballot,
        entity_id="VM",
        states=tuple(SiteTokenState(site, "VM", left, wanted) for site, left, wanted in states),
    )


def pledge_to(host: BareHost, ballot: Ballot) -> SiteTokenState:
    """Answer ``ballot``'s election the way a cohort does in vivo."""
    host.protocol.state.ballot_num = ballot
    return host.snapshot_init_val()


class TestLedgerOverEitherStorage:
    def test_own_election_opens_no_pledge(self, host):
        host.protocol.state.ballot_num = Ballot(1, A)
        snapshot = host.snapshot_init_val()
        assert snapshot == SiteTokenState(A, "VM", 100, 0)
        assert host.unresolved_pledge is None
        assert host.reserved_tokens() == 0
        assert host.available_tokens() == 100

    def test_foreign_election_freezes_the_snapshot(self, host):
        foreign = Ballot(5, B)
        pledge_to(host, foreign)
        assert host.unresolved_pledge == foreign
        assert host.pledged_tokens == 100
        # Protocol idle, balance still untouchable.
        assert host.reserved_tokens() == 100
        assert host.available_tokens() == 0
        # A later foreign election pools the same frozen balance.
        pledge_to(host, Ballot(6, C))
        assert host.unresolved_pledge == foreign
        assert host.log == [("open", foreign, 100)]

    def test_decided_without_us_settles_and_moves_nothing(self, host):
        foreign = Ballot(5, B)
        pledge_to(host, foreign)
        host.apply_redistribution(value(foreign, (B, 40, 0), (C, 60, 10)))
        assert host.unresolved_pledge is None
        assert host.state.tokens_left == 100
        assert host.reserved_tokens() == 0
        assert host.log[1:] == [
            ("settle", foreign, "decided"),
            ("apply", foreign, False, 100),
        ]

    def test_newer_value_pooling_us_settles_and_grants(self, host):
        foreign = Ballot(5, B)
        pledge_to(host, foreign)
        newer = value(Ballot(7, C), (A, 100, 0), (C, 20, 50))
        host.apply_redistribution(newer)
        granted = redistribute_tokens(list(newer.states))[A]
        assert granted < 100  # C wanted tokens: the round took some
        assert host.unresolved_pledge is None
        assert host.state.tokens_left == granted
        assert host.state.tokens_wanted == 0
        assert host.log[1:] == [
            ("settle", foreign, "pooled"),
            ("apply", newer.value_id, True, 100),
        ]

    def test_duplicate_value_id_applies_once(self, host):
        decided = value(Ballot(3, A), (A, 100, 0), (B, 20, 50))
        host.apply_redistribution(decided)
        after = host.state.tokens_left
        host.state.release(5)
        host.apply_redistribution(decided)
        assert host.state.tokens_left == after + 5
        assert [entry[0] for entry in host.log] == ["apply"]

    def test_surplus_earned_since_pooling_is_kept(self, host):
        decided = value(Ballot(3, A), (A, 100, 0), (B, 20, 50))
        host.state.release(30)  # degraded-mode release after pooling 100
        host.apply_redistribution(decided)
        granted = redistribute_tokens(list(decided.states))[A]
        assert host.state.tokens_left == granted + 30

    def test_spending_below_the_pooled_share_is_loud(self, host):
        host.state.acquire(40)
        with pytest.raises(TokenError, match="spent below its pooled"):
            host.apply_redistribution(value(Ballot(3, A), (A, 100, 0), (B, 20, 0)))

    def test_idle_with_unresolved_pledge_reelects_instead_of_draining(self, host):
        foreign = Ballot(5, B)
        pledge_to(host, foreign)
        host.on_protocol_idle()
        assert host.drains == []
        assert host.protocol.active
        assert host.last_trigger_at == host.now
        assert host.log[1:] == [("recover", foreign, "idle")]
        # Already electing: the watchdog's nudge is a no-op.
        assert host.recover_pledge(driver="watchdog") is False

    def test_idle_with_dead_pledged_ballot_settles_and_drains(self, host):
        foreign = Ballot(5, B)
        pledge_to(host, foreign)
        host.protocol.state.dead_ballots.add(foreign)
        host.on_protocol_idle()
        assert host.unresolved_pledge is None
        assert host.drains == [False]
        assert host.log[1:] == [("settle", foreign, "dead")]

    def test_view_storage_is_the_table(self):
        table = neighbours_table()
        host = BareHost(table.view(1))
        decided = value(Ballot(3, A), (A, 100, 0), (B, 20, 50))
        host.apply_redistribution(decided)
        granted = redistribute_tokens(list(decided.states))[A]
        assert list(table.tokens_left) == [7, granted, 9]


class TestScaleCrashDuringPledge:
    def _pledged_adapter(self):
        # duration=0: the drivers issue nothing, every request is ours.
        deployment = build_scale_deployment(
            ScaleConfig(entities=4, regions=3, maximum=30, seed=5, duration=0.0)
        )
        host = deployment.hosts[1]
        adapter = host.protocol_for("e0")
        foreign = Ballot(5, deployment.hosts[0].name)
        adapter.protocol.state.ballot_num = foreign
        adapter.snapshot_init_val()
        assert adapter.unresolved_pledge == foreign
        return deployment, host, adapter, foreign

    def test_pledged_balance_is_reserved_while_idle(self):
        _, host, adapter, _ = self._pledged_adapter()
        balance = host.table.tokens_left[adapter.row]
        assert balance > 0
        assert adapter.pledged_tokens == balance
        assert adapter.reserved_tokens() == balance
        # An idle, pledged entity parks the acquire behind a round
        # rather than serving it from the frozen balance.
        assert host.submit("e0", acquire=True, amount=1) == "queued"
        assert host.table.tokens_left[adapter.row] == balance

    def test_recovery_reelects_and_never_serves_the_pledge(self):
        deployment, host, adapter, foreign = self._pledged_adapter()
        balance = host.table.tokens_left[adapter.row]
        host.crash()
        host.recover()
        # The table is the stable store: the pledge survived and the
        # recovering host re-elected at once.
        assert adapter.unresolved_pledge == foreign
        assert host.stats()["pledge_recoveries"] == 1
        assert adapter.protocol.active
        assert host.submit("e0", acquire=True, amount=1) == "queued"
        assert host.table.tokens_left[adapter.row] == balance
        deployment.kernel.run(until=20.0)
        # The recovery election pooled the host into a fresh decided
        # value: settled, and only then was the queued acquire served.
        assert adapter.unresolved_pledge is None
        assert host.table.committed[adapter.row] == 1
        assert host.queued_requests() == 0
        violations, audited = audit_conservation(deployment)
        assert violations == [] and audited == 4


def test_hosts_do_not_reimplement_the_ledger():
    owned = ("apply_redistribution", "reserved_tokens", "on_protocol_idle", "recover_pledge")
    for cls in (SamyaSite, _EntityProtocolHost):
        assert not [name for name in owned if name in vars(cls)], cls
