"""Demarcation/Escrow baseline (§5).

Captures the mechanisms of Barbara & Garcia-Molina's demarcation
protocol extended to N sites (Alonso & El Abbadi) with Kumar &
Stonebraker's site escrows: every site starts with an equal escrow
(M_e / N) and serves requests locally; a site that runs dry borrows
escrow from peers one at a time, closest first.

Faithfully inherited weaknesses the paper points out:

- **No prediction** — borrowing is purely reactive, so demand peaks stall
  requests behind WAN borrow round trips (the latency spikes of
  Table 2b).
- **Reliable-network assumption** — a transfer decrements the lender
  before the grant message travels; if the network drops it, those
  tokens are gone and the system degrades ("a message loss may lead to
  blocking").  The conservation checker for this baseline accounts
  tokens in transit explicitly so tests can demonstrate exactly that.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.app_manager import ClosestRegionRouting
from repro.core.cluster import Deployment, split_initial_allocation
from repro.core.entity import Entity, EntityState
from repro.core.messages import ForwardedRequest
from repro.core.requests import RequestKind, RequestStatus
from repro.core.site import Server
from repro.metrics.invariants import ConservationChecker
from repro.net.message import Message
from repro.net.transport import Clock, Transport
from repro.net.regions import Region, rtt
from repro.storage.recovery import RecoveryWal


@dataclass(frozen=True)
class BorrowRequest:
    """Please transfer up to ``amount`` escrow tokens of ``entity_id``."""

    entity_id: str
    amount: int
    borrow_id: int


@dataclass(frozen=True)
class BorrowGrant:
    """``amount`` tokens transferred (0 = refusal).  The lender has
    already decremented itself — losing this message loses the tokens."""

    entity_id: str
    amount: int
    borrow_id: int


#: CPU cost of handling one message at a site (seconds).
SERVICE_TIME = 0.0002

#: How long to wait for one peer's grant before asking the next.
BORROW_TIMEOUT = 1.0

#: Gap between successive borrow campaigns at one site.
BORROW_COOLDOWN = 0.2


@dataclass
class DemarcationConfig:
    #: Fraction of the initial escrow a lender always keeps for itself.
    min_keep_fraction: float = 0.1


class EscrowSite(Server):
    """One value-partitioned site with pairwise escrow borrowing."""

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        entity: Entity,
        initial_tokens: int,
        config: DemarcationConfig | None = None,
    ) -> None:
        self.config = config or DemarcationConfig()
        super().__init__(kernel, name, region, network, SERVICE_TIME)
        self.entity = entity
        self.state = EntityState(entity.id, initial_tokens)
        self.min_keep = int(initial_tokens * self.config.min_keep_fraction)
        self._peer_regions: dict[str, Region] = {}
        self._pending: deque[ForwardedRequest] = deque()
        self._borrowing = False
        self._borrow_id = 0
        self._ask_order: list[str] = []
        self._ask_cursor = 0
        self._campaign_granted = 0
        self._next_borrow_allowed = 0.0
        self._borrow_timer = self.timer(self._on_borrow_timeout)
        #: Durable escrow balance, replayed on recovery.
        self.wal = RecoveryWal(name)
        self.initial_tokens = initial_tokens
        self.counters = {
            "granted_acquires": 0,
            "granted_releases": 0,
            "acquired_tokens": 0,
            "released_tokens": 0,
            "rejected": 0,
            "tokens_lent": 0,
            "tokens_borrowed": 0,
            "borrow_requests": 0,
        }
        self._persist()

    def connect(self, sites: list["EscrowSite"]) -> None:
        others = [site for site in sites if site.name != self.name]
        self._peer_regions = {site.name: site.region for site in others}
        # Ask closest peers first: cheapest round trips.
        self.peers = sorted(
            self._peer_regions, key=lambda name: rtt(self.region, self._peer_regions[name])
        )

    # -- message dispatch (behind the shell's service queue) -------------------

    def _dispatch(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ForwardedRequest):
            self._on_client_request(payload)
        elif isinstance(payload, BorrowRequest):
            self._on_borrow_request(payload, message.src)
        elif isinstance(payload, BorrowGrant):
            self._on_borrow_grant(payload)

    # -- client path -----------------------------------------------------------

    def _on_client_request(self, fwd: ForwardedRequest) -> None:
        request = fwd.request
        if request.kind is RequestKind.RELEASE:
            self.state.release(request.amount)
            self.counters["granted_releases"] += 1
            self.counters["released_tokens"] += request.amount
            self._persist()
            self._reply(fwd, RequestStatus.GRANTED)
            self._drain()
            return
        if request.kind is RequestKind.READ:
            # Demarcation has no global read protocol; answer locally.
            self._reply(fwd, RequestStatus.GRANTED, value=self.state.tokens_left)
            return
        if not self._pending and self.state.can_acquire(request.amount):
            self._grant_acquire(fwd)
            return
        self._pending.append(fwd)
        self._start_borrow()

    def _grant_acquire(self, fwd: ForwardedRequest) -> None:
        amount = fwd.request.amount
        self.state.acquire(amount)
        self.counters["granted_acquires"] += 1
        self.counters["acquired_tokens"] += amount
        self._persist()
        self._reply(fwd, RequestStatus.GRANTED)

    def _deficit(self) -> int:
        demand = sum(fwd.request.amount for fwd in self._pending)
        return max(0, demand - self.state.tokens_left)

    def _drain(self, final: bool = False) -> None:
        """Serve queued requests FIFO; on ``final`` reject what is left."""
        while self._pending:
            fwd = self._pending[0]
            if self.state.can_acquire(fwd.request.amount):
                self._pending.popleft()
                self._grant_acquire(fwd)
            elif final:
                self._pending.popleft()
                self.counters["rejected"] += 1
                self._reply(fwd, RequestStatus.REJECTED)
            else:
                break

    # -- borrowing --------------------------------------------------------------

    def _start_borrow(self) -> None:
        if self._borrowing or not self.peers:
            if not self.peers:
                self._drain(final=True)
            return
        if self.now < self._next_borrow_allowed:
            self.kernel.schedule(
                self._next_borrow_allowed - self.now,
                self._guarded,
                self._start_borrow_deferred,
                (),
            )
            self._borrowing = True  # hold the slot until the deferred fire
            return
        self._borrowing = True
        self._borrow_id += 1
        self._ask_order = list(self.peers)
        self._ask_cursor = 0
        self._campaign_granted = 0
        self._ask_next_peer()

    def _start_borrow_deferred(self) -> None:
        self._borrowing = False
        if self._deficit() > 0:
            self._start_borrow()
        else:
            self._drain()
            if self._pending:
                self._start_borrow()
            else:
                self._finish_borrow()

    def _ask_next_peer(self) -> None:
        deficit = self._deficit()
        if deficit <= 0:
            self._finish_borrow()
            return
        if self._ask_cursor >= len(self._ask_order):
            if self._campaign_granted > 0:
                # The pool is not dry (this pass raised tokens): demand
                # grew while we borrowed, so make another pass.
                self._ask_cursor = 0
                self._campaign_granted = 0
            else:
                # A full pass raised nothing: reject what cannot fit.
                self._finish_borrow(final=True)
                return
        peer = self._ask_order[self._ask_cursor]
        self._ask_cursor += 1
        self.counters["borrow_requests"] += 1
        self.network.send(
            self.name, peer, BorrowRequest(self.entity.id, deficit, self._borrow_id)
        )
        self._borrow_timer.restart(BORROW_TIMEOUT)

    def _on_borrow_request(self, msg: BorrowRequest, src: str) -> None:
        spare = max(0, self.state.tokens_left - self.min_keep - self._deficit())
        grant = min(spare, msg.amount)
        if grant > 0:
            # Demarcation rule: decrement *before* the transfer message, so
            # the global constraint can never be violated — but a lost
            # message loses the tokens.
            self.state.acquire(grant)
            self.counters["tokens_lent"] += grant
            self._persist()
        self.network.send(self.name, src, BorrowGrant(msg.entity_id, grant, msg.borrow_id))

    def _on_borrow_grant(self, msg: BorrowGrant) -> None:
        if msg.amount > 0:
            self.state.release(msg.amount)
            self.counters["tokens_borrowed"] += msg.amount
            self._persist()
            self._campaign_granted += msg.amount
        if not self._borrowing or msg.borrow_id != self._borrow_id:
            self._drain()
            return
        self._borrow_timer.cancel()
        self._drain()
        self._ask_next_peer()

    def _on_borrow_timeout(self) -> None:
        if not self._borrowing:
            return
        self._ask_next_peer()

    def _finish_borrow(self, final: bool = False) -> None:
        self._borrow_timer.cancel()
        self._borrowing = False
        self._next_borrow_allowed = self.now + BORROW_COOLDOWN
        self._drain(final=final)
        if self._pending:
            self._start_borrow()

    # -- crash handling (the paper excludes this baseline from failure
    #    experiments; crash support exists so tests can show why) -------------

    def _persist(self) -> None:
        self.wal.append(
            "escrow", (self.state.tokens_left, self.counters["tokens_lent"],
                       self.counters["tokens_borrowed"])
        )

    def crash(self) -> None:
        super().crash()
        self._pending.clear()
        self._borrow_timer.cancel()
        self._borrowing = False

    def recover(self) -> None:
        super().recover()
        stored = self.wal.replay().get("escrow")
        if stored is not None:
            tokens_left, lent, borrowed = stored
        else:
            tokens_left, lent, borrowed = self.initial_tokens, 0, 0
        self.state.tokens_left = tokens_left
        self.counters["tokens_lent"] = lent
        self.counters["tokens_borrowed"] = borrowed
        self._next_borrow_allowed = self.now + BORROW_COOLDOWN


class EscrowConservationChecker(ConservationChecker):
    """Conservation audit that accounts tokens in flight between sites."""

    def watch(self, sites: list) -> None:
        # Transfers are read off the sites' counters; nothing to listen for.
        self._sites = list(sites)

    def in_transit_tokens(self) -> int:
        lent = sum(site.counters["tokens_lent"] for site in self._sites)
        borrowed = sum(site.counters["tokens_borrowed"] for site in self._sites)
        return lent - borrowed

    def check(self) -> None:
        self.checks += 1
        settled = sum(site.state.tokens_left for site in self._sites)
        outstanding = self.outstanding_tokens()
        transit = self.in_transit_tokens()
        obs = self.obs
        if obs is not None:
            obs.emit(
                "invariant.check",
                settled=settled,
                outstanding=outstanding,
                transit=transit,
                maximum=self.maximum,
                checks=self.checks,
            )
        if transit < 0:
            self._violation(
                "conservation",
                f"more tokens received ({-transit}) than were ever lent",
                transit=transit,
                maximum=self.maximum,
            )
        if settled + outstanding + transit != self.maximum:
            self._violation(
                "conservation",
                f"escrow conservation broken: {settled} at sites + {outstanding} "
                f"held + {transit} in transit != M_e={self.maximum}",
                settled=settled,
                outstanding=outstanding,
                transit=transit,
                maximum=self.maximum,
            )
        if outstanding > self.maximum or outstanding < 0:
            self._violation(
                "eq1",
                f"Eq. 1 violated: clients hold {outstanding} of {self.maximum}",
                outstanding=outstanding,
                maximum=self.maximum,
            )


class DemarcationCluster(Deployment):
    """A wired Demarcation/Escrow deployment."""

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        entity: Entity,
        regions: Sequence[Region],
        config: DemarcationConfig | None = None,
    ) -> None:
        sites = [
            EscrowSite(
                kernel=kernel,
                name=f"escrow-{region.value}",
                region=region,
                network=network,
                entity=entity,
                initial_tokens=tokens,
                config=config,
            )
            for region, tokens in zip(
                regions, split_initial_allocation(entity.maximum, len(regions))
            )
        ]
        for site in sites:
            site.connect(sites)
        routing = ClosestRegionRouting(sites)
        super().__init__(kernel, network, entity, sites, routing, regions)
        self.sites = sites

    def total_tokens_left(self) -> int:
        return sum(site.state.tokens_left for site in self.sites)

    def make_checker(self, maximum: int) -> EscrowConservationChecker:
        checker = EscrowConservationChecker(maximum)
        checker.watch(self.sites)
        return checker
