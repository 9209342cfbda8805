"""Tests for the Demarcation/Escrow baseline."""

from repro.baselines import demarcation
from repro.baselines.demarcation import DemarcationCluster, EscrowConservationChecker
from repro.core.entity import Entity
from repro.metrics.hub import MetricsHub
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS
from repro.obs.bus import EventBus, RingSink
from repro.sim.kernel import Kernel

from tests.helpers import acquire_burst, uniform_ops


def build(seed=1, loss=0.0, maximum=300, regions=3):
    kernel = Kernel(seed=seed)
    network = Network(kernel, NetworkConfig(loss_probability=loss))
    cluster = DemarcationCluster(
        kernel, network, Entity("VM", maximum), list(PAPER_REGIONS[:regions])
    )
    hub = MetricsHub()
    checker = EscrowConservationChecker(maximum)
    checker._sites = cluster.sites
    return kernel, cluster, hub, checker


class TestLocalServing:
    def test_serves_within_escrow_locally(self):
        kernel, cluster, hub, checker = build()
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 50), metrics=hub)
        cluster.start()
        kernel.run(until=5.0)
        assert hub.committed == 50
        assert hub.latency_summary().p90 < 0.005
        assert cluster.sites[0].counters["borrow_requests"] == 0
        checker.check()

    def test_initial_escrow_split_evenly(self):
        kernel, cluster, hub, checker = build(maximum=301)
        balances = sorted(site.state.tokens_left for site in cluster.sites)
        assert sum(balances) == 301
        assert balances[-1] - balances[0] <= 1


class TestBorrowing:
    def test_exhaustion_borrows_from_peers(self):
        kernel, cluster, hub, checker = build()
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 150), metrics=hub)
        cluster.start()
        kernel.run(until=30.0)
        assert hub.committed == 150
        assert cluster.sites[0].counters["tokens_borrowed"] > 0
        checker.check()

    def test_lender_keeps_its_reserve(self, monkeypatch):
        monkeypatch.setattr(demarcation, "MIN_KEEP_FRACTION", 0.2)
        kernel, cluster, hub, checker = build()
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 250), metrics=hub)
        cluster.start()
        kernel.run(until=30.0)
        # Lenders never drop below 20% of their initial escrow.
        for site in cluster.sites[1:]:
            assert site.state.tokens_left >= site.min_keep
        checker.check()

    def test_borrow_latency_visible_in_tail(self):
        kernel, cluster, hub, checker = build()
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 150), metrics=hub)
        cluster.start()
        kernel.run(until=30.0)
        summary = hub.latency_summary()
        # Requests stalled behind a WAN borrow round trip.
        assert summary.maximum > 0.05
        assert summary.p50 < 0.01

    def test_global_exhaustion_rejects(self):
        kernel, cluster, hub, checker = build(maximum=90)
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 150, spacing=0.05), metrics=hub)
        cluster.start()
        kernel.run(until=60.0)
        assert hub.rejected > 0
        assert hub.committed < 95
        checker.check()


class TestReliableNetworkAssumption:
    def test_dropped_grant_strands_the_tokens(self):
        """The paper's critique: the lender decrements *before* the grant
        travels, so a dropped grant permanently strands the escrow."""
        from repro.baselines.demarcation import BorrowRequest

        kernel, cluster, hub, checker = build()
        lender = cluster.sites[1]
        before = lender.state.tokens_left
        # A borrow request whose reply has nowhere to go: the grant is
        # dropped by the network exactly like a lost message.
        lender._on_borrow_request(BorrowRequest("VM", 25, borrow_id=1), "vanished-site")
        kernel.run(until=5.0)
        assert lender.state.tokens_left == before - 25
        assert checker.in_transit_tokens() == 25
        checker.check()  # conserved only once transit is accounted

    def test_no_loss_means_no_transit_residue(self):
        kernel, cluster, hub, checker = build()
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 150), metrics=hub)
        cluster.start()
        kernel.run(until=60.0)
        assert checker.in_transit_tokens() == 0
        checker.check()


class TestConservationUnderChurn:
    def test_mixed_load_conserves(self):
        kernel, cluster, hub, checker = build(seed=5)
        for index, region in enumerate(PAPER_REGIONS[:3]):
            cluster.add_client(
                region, uniform_ops(index, 400, rate=20, acquire_fraction=0.8),
                metrics=hub,
            )
        cluster.start()
        kernel.run(until=60.0)
        checker.check()
        assert hub.committed > 0

    def test_check_event_fields_in_order(self):
        kernel, cluster, hub, checker = build()
        sink = RingSink()
        checker.obs = EventBus(kernel, sink)
        cluster.add_client(PAPER_REGIONS[0], acquire_burst(1.0, 150), metrics=hub)
        cluster.start()
        kernel.run(until=60.0)
        checker.check()
        [event] = sink.events()
        assert list(event) == [
            "ts", "type", "node",
            "settled", "outstanding", "transit", "maximum", "checks",
        ]
        assert (event["transit"], event["maximum"]) == (0, 300)
