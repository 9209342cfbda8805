"""Application managers: stateless relays between clients and sites (§3.1).

The paper merges client and app manager onto one machine per region
(§5.2); we model the same by letting clients hand requests to their
regional app manager via a direct call (zero network cost) while the
manager <-> site hop crosses the simulated network.

Routing is pluggable: Samya routes to the closest live site; the
baseline systems install their own policies (leader, leaseholder, ...).
"""

from __future__ import annotations

from typing import Protocol

from repro.core.messages import ForwardedRequest, SiteResponse
from repro.core.requests import ClientRequest, ClientResponse, RequestStatus
from repro.net.message import Message
from repro.net.transport import Clock, Transport
from repro.net.regions import Region, rtt
from repro.sim.process import Actor


class RoutingPolicy(Protocol):
    """Chooses the serving endpoint for a request."""

    def select(self, request: ClientRequest, region: Region) -> str | None:
        """Endpoint name, or None when nothing is reachable."""
        ...  # pragma: no cover


class ClosestRegionRouting:
    """Route to a live site in the region closest to the client's
    (§4.1.2 step 2).  Liveness stands in for the health checks a real
    load balancer runs: crashed sites are skipped and the request fails
    over to the next-closest one.  When several sites share the closest
    region (the §5.7 scalability setups), requests round-robin over them.
    """

    def __init__(self, network: Transport, sites: list) -> None:
        self._network = network
        self._sites = list(sites)
        self._rotation = 0

    def select(self, request: ClientRequest, region: Region) -> str | None:
        best: list[str] = []
        best_latency = float("inf")
        for site in self._sites:
            if site.crashed:
                continue
            latency = rtt(region, site.region)
            if latency < best_latency:
                best = [site.name]
                best_latency = latency
            elif latency == best_latency:
                best.append(site.name)
        if not best:
            return None
        self._rotation += 1
        return best[self._rotation % len(best)]


class FixedTargetRouting:
    """Always route to one endpoint (the Paxos leader, say), with an
    optional callable so the target can move after elections."""

    def __init__(self, target) -> None:
        self._target = target

    def select(self, request: ClientRequest, region: Region) -> str | None:
        target = self._target() if callable(self._target) else self._target
        return target


class AppManager(Actor):
    """A stateless request relay colocated with the clients of a region.

    §4.1.2 step 2: "if the closest site has failed or is overloaded, an
    app manager may relay the client request to another site."  The
    manager therefore retries an unanswered request against the
    next-closest site after ``retry_timeout``.  Retries make delivery
    at-least-once; the *effect* stays exactly-once where the serving
    system deduplicates by request id: a Samya site in its response
    cache, the log baselines in the replicated state machine.  An escrow
    site does not (DESIGN.md, "Server and deployment shells").
    """

    #: Re-route an unanswered request after this many seconds (0 = never).
    retry_timeout: float = 3.0
    #: Total delivery attempts per request (first send + retries).
    max_attempts: int = 3

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        routing: RoutingPolicy,
    ) -> None:
        super().__init__(kernel, name)
        self.region = region
        self.network = network
        self.routing = routing
        #: request_id -> (client, request, attempts, tried targets).
        self._inflight: dict[int, dict] = {}
        self.relayed = 0
        self.retries = 0
        self.unroutable = 0
        network.attach(self, region)

    def submit(self, request: ClientRequest, client) -> None:
        """Accept a request from a colocated client and relay it."""
        record = {"client": client, "request": request, "attempts": 0, "tried": set()}
        self._inflight[request.request_id] = record
        self._attempt(record)

    def _attempt(self, record: dict) -> None:
        request = record["request"]
        if request.request_id not in self._inflight:
            return  # answered while the retry timer was pending
        target = self.routing.select(request, self.region)
        if target is None:
            del self._inflight[request.request_id]
            self.unroutable += 1
            record["client"].on_response(
                ClientResponse(request.request_id, RequestStatus.FAILED), self.now
            )
            return
        if target in record["tried"]:
            # The routing policy still considers the last target healthy:
            # the request is queued there (a redistribution in flight, a
            # deep service queue), not lost.  Re-sending to a *different*
            # site would risk executing the transaction twice, so wait.
            if self.retry_timeout > 0:
                self.kernel.schedule(
                    self.retry_timeout, self._guarded, self._attempt, (record,)
                )
            return
        if record["attempts"] >= self.max_attempts:
            del self._inflight[request.request_id]
            self.unroutable += 1
            record["client"].on_response(
                ClientResponse(request.request_id, RequestStatus.FAILED), self.now
            )
            return
        record["attempts"] += 1
        record["tried"].add(target)
        if record["attempts"] == 1:
            self.relayed += 1
        else:
            self.retries += 1
        self.network.send(self.name, target, ForwardedRequest(request, reply_to=self.name))
        if self.retry_timeout > 0:
            self.kernel.schedule(
                self.retry_timeout, self._guarded, self._attempt, (record,)
            )

    def on_message(self, message: Message) -> None:
        if self.crashed:
            return
        payload = message.payload
        if not isinstance(payload, SiteResponse):
            return
        record = self._inflight.pop(payload.response.request_id, None)
        if record is not None:
            record["client"].on_response(payload.response, self.now)

    def crash(self) -> None:
        super().crash()
        self._inflight.clear()
