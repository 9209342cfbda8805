"""Tests for workload clients, app managers, and routing policies."""

from repro.core.app_manager import AppManager, ClosestRegionRouting, FixedTargetRouting
from repro.core.client import Operation, WorkloadClient
from repro.core.requests import ClientRequest, RequestKind, RequestStatus
from repro.net.regions import Region

from tests.helpers import MiniCluster, acquire_burst


def request(kind=RequestKind.ACQUIRE, amount=1):
    return ClientRequest(
        kind=kind, entity_id="VM", amount=amount, client="c", region="r"
    )


class TestClosestRegionRouting:
    def test_prefers_same_region(self):
        mini = MiniCluster()
        routing = mini.cluster.app_managers[mini.site(0).region].routing
        target = routing.select(request(), mini.site(0).region)
        assert target == mini.site(0).name

    def test_fails_over_when_closest_crashed(self):
        mini = MiniCluster()
        mini.site(0).crash()
        routing = mini.cluster.app_managers[mini.site(0).region].routing
        target = routing.select(request(), mini.site(0).region)
        assert target is not None and target != mini.site(0).name

    def test_returns_none_when_all_crashed(self):
        mini = MiniCluster()
        for site in mini.sites:
            site.crash()
        routing = mini.cluster.app_managers[mini.site(0).region].routing
        assert routing.select(request(), mini.site(0).region) is None

    def test_round_robins_within_region(self):
        mini = MiniCluster()
        routing = ClosestRegionRouting(mini.sites[:1] * 1)
        # Two co-located fake sites by reusing the same region.
        routing._sites = [mini.site(0), mini.site(0)]
        first = routing.select(request(), mini.site(0).region)
        second = routing.select(request(), mini.site(0).region)
        assert first == second == mini.site(0).name  # same name, but rotation ran
        assert routing._rotation == 2


class TestFixedTargetRouting:
    def test_static_target(self):
        routing = FixedTargetRouting("leader-1")
        assert routing.select(request(), Region.US_WEST1) == "leader-1"

    def test_callable_target_moves(self):
        current = {"leader": "a"}
        routing = FixedTargetRouting(lambda: current["leader"])
        assert routing.select(request(), Region.US_WEST1) == "a"
        current["leader"] = "b"
        assert routing.select(request(), Region.US_WEST1) == "b"


class TestAppManager:
    def test_unroutable_request_fails_immediately(self):
        mini = MiniCluster()
        for site in mini.sites:
            site.crash()
        client = mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=3))
        mini.run(until=5.0)
        assert mini.metrics.failed == 3

    def test_responses_resolve_inflight(self):
        mini = MiniCluster()
        manager = mini.cluster.app_managers[mini.site(0).region]
        mini.client_for(mini.site(0).region, acquire_burst(start=1.0, count=5))
        mini.run(until=5.0)
        assert manager.relayed == 5
        assert len(manager._inflight) == 0


class TestWorkloadClient:
    def test_release_clamped_to_outstanding(self):
        mini = MiniCluster()
        client = mini.client_for(
            mini.site(0).region,
            [
                Operation(1.0, RequestKind.RELEASE, 5),  # nothing held: skipped
                Operation(2.0, RequestKind.ACQUIRE, 3),
                Operation(3.0, RequestKind.RELEASE, 10),  # clamped to 3
            ],
        )
        mini.run(until=6.0)
        assert client.skipped_releases == 1
        assert client.outstanding == 0
        assert mini.site(0).state.tokens_left == 100  # 3 out, 3 back

    def test_window_sheds_excess_offered_load(self):
        mini = MiniCluster()
        mini.site(0).crash()
        mini.site(1).crash()
        mini.site(2).crash()
        # Nothing can answer; with a window of 2 everything else is shed
        # or failed-unroutable... route requires a live site, so FAILED.
        client = mini.client_for(mini.site(0).region, acquire_burst(1.0, 10))
        client.max_outstanding = 2
        mini.run(until=5.0)
        assert mini.metrics.failed == 10  # unroutable -> instant FAILED

    def test_window_expiry_frees_slots(self):
        mini = MiniCluster()
        client = mini.client_for(
            mini.site(0).region, acquire_burst(start=1.0, count=30, spacing=1.0)
        )
        client.max_outstanding = 2
        client.request_timeout = 3.0
        # Crash the serving site after the first responses, leaving
        # in-flight requests unanswered.
        mini.kernel.schedule(2.5, mini.site(0).crash)
        mini.kernel.schedule(2.5, mini.site(1).crash)
        mini.kernel.schedule(2.5, mini.site(2).crash)
        mini.run(until=40.0)
        # The client kept issuing after expiring zombies.
        assert mini.metrics.failed > 0

    def test_open_loop_issue_times_follow_trace(self):
        mini = MiniCluster()
        client = mini.client_for(
            mini.site(0).region,
            [Operation(2.0, RequestKind.ACQUIRE, 1), Operation(4.0, RequestKind.ACQUIRE, 1)],
        )
        mini.run(until=10.0)
        assert client.issued == 2
        assert mini.metrics.committed == 2

    def test_crashed_client_stops_issuing(self):
        mini = MiniCluster()
        client = mini.client_for(
            mini.site(0).region, acquire_burst(start=1.0, count=100, spacing=0.1)
        )
        mini.kernel.schedule(2.0, client.crash)
        mini.run(until=60.0)
        assert client.issued < 100
