"""Unit tests for degraded-mode serving and token reservation.

When a redistribution round cannot terminate (unreachable majority /
participants), the site serves best-effort: its pooled contribution is
reserved, fresh release inflow is spendable, and late decisions apply as
deltas.  These tests pin that machinery directly.
"""

from repro.core.avantan.state import AcceptValue, Ballot
from repro.core.config import AvantanVariant
from repro.core.entity import SiteTokenState
from repro.core.messages import ForwardedRequest
from repro.core.requests import ClientRequest, RequestKind

from tests.helpers import MiniCluster, acquire_burst


def forwarded(site, kind, amount):
    request = ClientRequest(
        kind=kind, entity_id="VM", amount=amount,
        client="c", region=site.region.value,
    )
    manager_name = f"am-{site.region.value}"
    return ForwardedRequest(request, reply_to=manager_name)


def freeze_with_value(mini, site, pooled):
    """Put ``site`` into a degraded round holding a value that pools
    ``pooled`` of its tokens."""
    others = [s for s in mini.sites if s is not site][:1]
    value = AcceptValue(
        value_id=Ballot(9, site.name),
        entity_id="VM",
        states=(
            SiteTokenState(site.name, "VM", pooled, 0),
            SiteTokenState(others[0].name, "VM", 40, 0),
        ),
    )
    protocol = site.protocol
    protocol.state.ballot_num = value.value_id
    protocol.state.accept_val = value
    protocol.state.accept_num = value.value_id
    from repro.core.avantan.base import Phase, Role

    protocol.role = Role.COHORT
    protocol.phase = Phase.ACCEPT
    protocol._enter_degraded()
    return value


class TestReservedTokens:
    def test_idle_site_reserves_nothing(self):
        mini = MiniCluster(maximum=300)
        assert mini.site(0).reserved_tokens() == 0
        assert mini.site(0).available_tokens() == 100

    def test_degraded_site_reserves_pooled_share(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        freeze_with_value(mini, site, pooled=100)
        assert site.reserved_tokens() == 100
        assert site.available_tokens() == 0

    def test_release_inflow_is_spendable_while_degraded(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        freeze_with_value(mini, site, pooled=100)
        site._handle_client(forwarded(site, RequestKind.RELEASE, 30))
        assert site.available_tokens() == 30
        site._handle_client(forwarded(site, RequestKind.ACQUIRE, 20))
        assert site.state.tokens_left == 110
        assert site.available_tokens() == 10

    def test_acquire_beyond_surplus_rejected_fast_while_degraded(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        freeze_with_value(mini, site, pooled=100)
        site._handle_client(forwarded(site, RequestKind.ACQUIRE, 50))
        assert site.counters["rejected"] == 1
        assert not site._pending  # never queued
        assert site.state.tokens_left == 100  # reserve untouched


class TestDeltaApply:
    def test_late_decision_keeps_surplus(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        value = freeze_with_value(mini, site, pooled=100)
        # 30 fresh tokens arrive while blocked; 10 get spent.
        site._handle_client(forwarded(site, RequestKind.RELEASE, 30))
        site._handle_client(forwarded(site, RequestKind.ACQUIRE, 10))
        assert site.state.tokens_left == 120
        # The round finally decides: site's grant is its share of the
        # deterministic reallocation of (100 + 40) pooled tokens.
        from repro.core.reallocation import redistribute_tokens

        granted = redistribute_tokens(list(value.states))[site.name]
        site.apply_redistribution(value)
        assert site.state.tokens_left == granted + 20  # grant + surplus

    def test_normal_apply_is_exact_grant(self):
        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        value = AcceptValue(
            value_id=Ballot(3, site.name),
            entity_id="VM",
            states=(
                SiteTokenState(site.name, "VM", 100, 0),
                SiteTokenState(mini.site(1).name, "VM", 100, 0),
            ),
        )
        site.apply_redistribution(value)
        assert site.state.tokens_left == 100  # equal split of 200

    def test_spending_below_reserve_is_a_loud_error(self):
        import pytest

        from repro.core.entity import TokenError

        mini = MiniCluster(maximum=300)
        site = mini.site(0)
        value = freeze_with_value(mini, site, pooled=100)
        site.state.tokens_left = 60  # simulate a reserve-accounting bug
        with pytest.raises(TokenError):
            site.apply_redistribution(value)


class TestDegradedEndToEnd:
    def test_blocked_majority_round_still_serves_release_churn(self):
        """Freeze a round against dead peers; the survivor's release
        inflow keeps a trickle of acquires flowing."""
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        survivor = mini.site(0)
        for other in mini.sites[1:]:
            other.crash()
        freeze_with_value(mini, survivor, pooled=100)
        served = []
        from repro.core.client import Operation

        ops = [Operation(1.0 + 0.1 * i, RequestKind.RELEASE, 1) for i in range(20)]
        ops += [Operation(4.0 + 0.1 * i, RequestKind.ACQUIRE, 1) for i in range(15)]
        client = mini.client_for(survivor.region, ops)
        # The client holds VMs from before the freeze (its releases must
        # not be clamped away).
        client.outstanding = 20
        mini.run(until=20.0)
        assert mini.metrics.committed >= 30  # 20 releases + >=10 acquires
        # The reserve itself was never spent.
        assert survivor.state.tokens_left >= survivor.reserved_tokens()
