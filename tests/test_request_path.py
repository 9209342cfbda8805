"""The tables the sim request path computes once instead of per hop.

- :class:`ClosestRegionRouting` ranks its sites by RTT once per client
  region; its answers must equal, call by call, the linear scan it
  replaced (kept below as the oracle), rotation included.
- :class:`Network` caches the base latency per endpoint pair; attach and
  detach must reset the cache, since a name can come back elsewhere.
- :class:`Message` is slotted and still round-trips through the codec.
- The kernel rejects NaN times on both entry points.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.app_manager import ClosestRegionRouting
from repro.core.messages import SiteResponse
from repro.core.requests import ClientResponse, RequestStatus
from repro.net import codec
from repro.net.message import Message
from repro.net.network import PROCESSING_OVERHEAD, Network, NetworkConfig
from repro.net.regions import Region, one_way_latency, rtt
from repro.sim.kernel import Kernel, SimulationError
from repro.sim.process import Actor


class StubSite:
    def __init__(self, name, region):
        self.name, self.region, self.crashed = name, region, False


class ScanRouting:
    """The closest-live-site choice as a full scan on every call."""

    def __init__(self, sites):
        self._sites = list(sites)
        self._rotation = 0

    def select(self, request, region):
        best, best_latency = [], float("inf")
        for site in self._sites:
            if site.crashed:
                continue
            latency = rtt(region, site.region)
            if latency < best_latency:
                best, best_latency = [site.name], latency
            elif latency == best_latency:
                best.append(site.name)
        if not best:
            return None
        self._rotation += 1
        return best[self._rotation % len(best)]


REGIONS = st.sampled_from(list(Region))


@settings(max_examples=200, deadline=None)
@given(
    site_regions=st.lists(REGIONS, min_size=1, max_size=8),
    calls=st.lists(
        st.tuples(REGIONS, st.sets(st.integers(min_value=0, max_value=7))),
        min_size=1,
        max_size=30,
    ),
)
def test_ranked_routing_answers_like_the_scan(site_regions, calls):
    sites = [StubSite(f"s{i}", region) for i, region in enumerate(site_regions)]
    ranked, scan = ClosestRegionRouting(sites), ScanRouting(sites)
    for client_region, crashed in calls:
        for index, site in enumerate(sites):
            site.crashed = index in crashed
        assert ranked.select(None, client_region) == scan.select(None, client_region)
    assert ranked._rotation == scan._rotation


def test_ties_round_robin_and_fail_over():
    sites = [
        StubSite("w0", Region.US_WEST1),
        StubSite("e0", Region.ASIA_EAST2),
        StubSite("w1", Region.US_WEST1),
    ]
    routing = ClosestRegionRouting(sites)
    assert [routing.select(None, Region.US_WEST1) for _ in range(4)] == [
        "w1", "w0", "w1", "w0",
    ]
    sites[0].crashed = sites[2].crashed = True
    assert routing.select(None, Region.US_WEST1) == "e0"
    sites[1].crashed = True
    assert routing.select(None, Region.US_WEST1) is None


class Sink(Actor):
    def __init__(self, kernel, name):
        super().__init__(kernel, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def test_reattached_endpoint_moves_its_latency():
    kernel = Kernel(seed=3)
    network = Network(kernel, NetworkConfig(jitter_sigma=0.0))
    a, b = Sink(kernel, "a"), Sink(kernel, "b")
    network.attach(a, Region.US_WEST1)
    network.attach(b, Region.ASIA_EAST2)
    network.send("a", "b", "ping")
    kernel.run()
    first = b.received[-1]
    assert first.delivered_at - first.sent_at == pytest.approx(
        one_way_latency(Region.US_WEST1, Region.ASIA_EAST2) + PROCESSING_OVERHEAD
    )

    network.detach("b")
    moved = Sink(kernel, "b")
    network.attach(moved, Region.EUROPE_WEST2)
    far = one_way_latency(Region.US_WEST1, Region.EUROPE_WEST2)
    assert far != one_way_latency(Region.US_WEST1, Region.ASIA_EAST2)
    assert network.latency("a", "b") == far
    network.send("a", "b", "ping")
    kernel.run()
    second = moved.received[-1]
    assert second.delivered_at - second.sent_at == pytest.approx(
        far + PROCESSING_OVERHEAD
    )


def test_message_is_slotted_and_round_trips():
    response = ClientResponse(7, RequestStatus.GRANTED, value=3, served_by="s1")
    message = Message(
        "s1",
        "am",
        SiteResponse(response),
        sent_at=1.25,
        delivered_at=1.5,
        metadata={"hop": 2},
        msg_id=41,
        trace_id="req-7",
    )
    assert not hasattr(message, "__dict__")
    with pytest.raises(AttributeError):
        message.extra = 1
    assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize("entry", ["schedule", "schedule_at"])
def test_kernel_rejects_nan_times(entry):
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, fired.append, 5.0)
    with pytest.raises(SimulationError):
        getattr(kernel, entry)(math.nan, fired.append, math.nan)
    kernel.schedule(1.0, fired.append, 1.0)
    kernel.run()
    assert fired == [1.0, 5.0] and kernel.now == 5.0
