"""A Samya site: the four-module server of Fig. 2.

* Request Handling Module — serves acquire/release locally (Eqs. 2-3),
  queues requests while a redistribution is in flight, and triggers
  proactive (Eq. 4) and reactive (Eq. 5) redistributions.
* Prediction Module — a pluggable :class:`~repro.prediction.base.Predictor`
  fed the site's per-epoch demand.
* Protocol Module — an Avantan variant (majority or star).
* Redistribution Module — a pluggable reallocation strategy
  (Algorithm 2 by default).

The site also implements the read-only transaction of §5.8 (global
token-availability snapshot) and crash/recovery from stable storage.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Callable

from repro.core.avantan.majority import AvantanMajority
from repro.core.avantan.star import AvantanStar
from repro.core.avantan.state import AvantanState, Ballot
from repro.core.config import AvantanVariant, SamyaConfig
from repro.core.entity import Entity, EntityState
from repro.core.ledger import RedistributionLedger
from repro.core.messages import (
    ForwardedRequest,
    SiteResponse,
    TokenInfoReply,
    TokenInfoRequest,
)
from repro.core.reallocation import Reallocator
from repro.core.requests import ClientResponse, RequestKind, RequestStatus
from repro.net.message import EnvelopeDedup, Message
from repro.net.regions import Region
from repro.net.transport import Clock, Transport
from repro.prediction.base import DemandHistory, Predictor
from repro.sim.process import Actor
from repro.storage.recovery import RecoveryWal

_read_ids = itertools.count(1)


def reset_read_ids() -> None:
    """Restart read ids per deployment, like ``reset_request_ids``."""
    global _read_ids
    _read_ids = itertools.count(1)


#: Answered request ids a server remembers for request-level dedup
#: (``SamyaSite``'s response cache, the log baselines' state machine).
#: A constant: it only has to outlast the app manager's retry horizon.
REQUEST_DEDUP_WINDOW = 8192

#: How many epochs of predicted demand a site asks for when it triggers
#: (TokensWanted = ceil(prediction * horizon) - TokensLeft).  Eq. 4 uses
#: exactly one epoch; asking for a few keeps the site supplied through
#: the redistribution cooldown.
WANT_HORIZON_EPOCHS = 4.0

#: Timeout for collecting remote token info on read transactions.
READ_TIMEOUT = 1.0


class Server(Actor):
    """The server shell every compared system runs inside.

    The server is modelled as a single server: each message costs a
    service time and waits behind earlier work, which is what turns
    offered load into finite throughput and queueing latency.  The shell
    owns that queue, the envelope dedup in front of it and the plain
    reply to the app manager, so the systems §5 compares differ in their
    protocols and not in their apparatus.  A system supplies
    ``_dispatch`` and its two costs: ``request_cost`` for a
    ``ForwardedRequest``, ``protocol_cost`` (the same, unless given) for
    everything else.

    Envelope dedup: a live transport may retransmit an unconfirmed frame
    after a reconnect, and the fault layer deliberately re-delivers
    envelopes, so the same ``msg_id`` can arrive twice.  Executing the
    second copy would double-serve a request, mint tokens out of a
    duplicated escrow grant, or commit one command twice.
    """

    #: In steady state every insert past the window evicts one id, so the
    #: trace event is sampled: the first eviction (the window just became
    #: lossy) and every 4096th after it, each carrying the running total.
    _DEDUP_EVICT_SAMPLE = 4096

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        request_cost: float,
        protocol_cost: float | None = None,
    ) -> None:
        super().__init__(kernel, name)
        self.region = region
        self.network = network
        #: The other servers of the system, by name; set by ``connect``.
        self.peers: list[str] = []
        self._request_cost = request_cost
        self._protocol_cost = request_cost if protocol_cost is None else protocol_cost
        self._envelopes = EnvelopeDedup(on_evict=self._on_dedup_evict)
        self._busy_until = 0.0
        network.attach(self, region)

    def _on_dedup_evict(self, total: int) -> None:
        if total != 1 and total % self._DEDUP_EVICT_SAMPLE != 0:
            return
        obs = self.obs
        if obs is not None:
            obs.emit(
                "dedup.evict",
                node=self.name,
                evictions=total,
                window=self._envelopes.limit,
            )

    def on_message(self, message: Message) -> None:
        """Queue the message behind in-progress work, then dispatch."""
        if self.crashed:
            return
        if self._envelopes.seen(message.msg_id):
            return  # duplicate frame: already queued/processed once
        cost = (
            self._request_cost
            if isinstance(message.payload, ForwardedRequest)
            else self._protocol_cost
        )
        now = self.kernel.now
        start = max(now, self._busy_until)
        self._busy_until = start + cost
        self.kernel.schedule(
            self._busy_until - now, self._guarded, self._dispatch, (message,)
        )

    def _reply(
        self, fwd: ForwardedRequest, status: RequestStatus, value: int | None = None
    ) -> ClientResponse:
        response = ClientResponse(
            request_id=fwd.request.request_id,
            status=status,
            value=value,
            served_by=self.name,
        )
        self.network.send(self.name, fwd.reply_to, SiteResponse(response))
        return response

    def recover(self) -> None:
        super().recover()
        self._busy_until = self.now


class SamyaSite(Server, RedistributionLedger):
    """One geo-distributed data shard holding a fraction of the tokens.

    Token accounting around the protocol (pledge, reserve, delta apply)
    is the inherited :class:`~repro.core.ledger.RedistributionLedger`;
    this class supplies its hooks: TokensWanted from prediction and the
    queue, the queue drain, and the WAL / trace / counter side effects.

    At-least-once delivery is deduplicated at two levels: retried
    *requests* (app-manager failover) by request_id in
    ``_handle_client``, and retransmitted *envelopes* by ``msg_id`` in
    the shell — together they keep effects exactly-once over a lossy
    real socket, not just in sim.
    """

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
        entity: Entity,
        initial_tokens: int,
        config: SamyaConfig | None = None,
        predictor: Predictor | None = None,
        reallocator: Reallocator | None = None,
    ) -> None:
        self.config = config or SamyaConfig()
        super().__init__(
            kernel,
            name,
            region,
            network,
            request_cost=self.config.service_time,
            protocol_cost=self.config.protocol_service_time,
        )
        RedistributionLedger.__init__(self, EntityState(entity.id, initial_tokens))
        self.entity = entity
        self.initial_tokens = initial_tokens
        self.predictor = predictor
        self.reallocator = reallocator
        #: Durable state is an append-only log replayed on recovery, so
        #: what a recovered site believes is exactly what reached disk.
        self.wal = RecoveryWal(name)
        self.history = DemandHistory()

        self._pending: deque[ForwardedRequest] = deque()
        self._pending_ids: set[int] = set()
        self._reads: dict[int, dict[str, Any]] = {}
        # Request dedup: app managers re-route unanswered requests to
        # another site when this one looks dead; if it was merely slow,
        # the duplicate must not execute twice.
        self._response_cache: dict[int, ClientResponse] = {}
        self._draining = False
        self._epoch_index = 0
        #: Forecast stashed at the previous epoch close — the demand the
        #: predictor expected for the epoch now closing.  Only computed
        #: on traced runs (all harness predictors forecast purely, so
        #: the extra call cannot perturb untraced determinism).
        self._last_forecast: float | None = None
        self._last_proactive_check = -math.inf
        self._deferred_trigger: Any = None
        self._epoch_event: Any = None
        #: Observers notified with (site, value, granted) on every applied
        #: redistribution — the invariant checker hooks in here.
        self.apply_listeners: list[Callable[..., None]] = []

        self.counters = {
            "granted_acquires": 0,
            "granted_releases": 0,
            "acquired_tokens": 0,
            "released_tokens": 0,
            "rejected": 0,
            "reads": 0,
            "proactive_triggers": 0,
            "reactive_triggers": 0,
            "pledges_opened": 0,
            "pledge_settlements": 0,
            "pledge_recoveries": 0,
        }

        self._persist_entity()
        self._schedule_epoch()

    # -- wiring -------------------------------------------------------------

    def connect(self, peer_names: list[str]) -> None:
        """Install the protocol module once the full site set is known."""
        self.peers = [peer for peer in peer_names if peer != self.name]
        if self.config.variant is AvantanVariant.MAJORITY:
            self.protocol = AvantanMajority(self, self.peers)
        else:
            self.protocol = AvantanStar(self, self.peers)
        self.protocol.configure_timeouts(
            self.config.election_timeout,
            self.config.cohort_timeout,
            self.config.blocked_retry_interval,
        )

    # -- message dispatch (behind the shell's service queue) -------------------

    def _dispatch(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ForwardedRequest):
            self._handle_client(payload)
        elif isinstance(payload, TokenInfoRequest):
            self.network.send(
                self.name,
                message.src,
                TokenInfoReply(payload.entity_id, payload.read_id, self.state.tokens_left),
            )
        elif isinstance(payload, TokenInfoReply):
            self._on_token_info_reply(payload, message.src)
        elif self.protocol is not None:
            self.protocol.handle(payload, message.src)

    # -- request handling module (steps 3-5 of §4.1.2) -------------------------

    _RESPONSE_CACHE_LIMIT = REQUEST_DEDUP_WINDOW

    def _handle_client(self, fwd: ForwardedRequest) -> None:
        request = fwd.request
        cached = self._response_cache.get(request.request_id)
        if cached is not None:
            # At-least-once delivery: replay the recorded outcome.
            self.network.send(self.name, fwd.reply_to, SiteResponse(cached))
            return
        if request.request_id in self._pending_ids:
            return  # duplicate of a queued request; one answer suffices
        if request.kind is RequestKind.READ:
            self._begin_read(fwd)
            return
        if request.kind is RequestKind.ACQUIRE:
            # Demand = tokens asked for, counted whether or not granted.
            self.history.record_demand(request.amount)
        if (
            self.protocol is not None
            and self.protocol.active
            and not self.protocol.degraded
        ):
            # §4.3: a participating site queues acquire/release requests
            # until the protocol terminates.  A *degraded* (blocked) site
            # instead falls through and serves best-effort from tokens
            # beyond its pooled contribution.
            self._queue_pending(fwd)
            return
        self._serve(fwd, draining=False)

    def _serve(self, fwd: ForwardedRequest, draining: bool) -> None:
        request = fwd.request
        if request.kind is RequestKind.RELEASE:
            self.state.release(request.amount)
            self._persist_entity()
            self.counters["granted_releases"] += 1
            self.counters["released_tokens"] += request.amount
            self._respond(fwd, RequestStatus.GRANTED, waited=draining)
            return
        if not self.config.enforce_constraint:
            # "No Constraints" ablation (§5.5): every acquire succeeds.
            self.counters["granted_acquires"] += 1
            self.counters["acquired_tokens"] += request.amount
            self._respond(fwd, RequestStatus.GRANTED, waited=draining)
            return
        if 0 < request.amount <= self.available_tokens():
            self.state.acquire(request.amount)
            self._persist_entity()
            self.counters["granted_acquires"] += 1
            self.counters["acquired_tokens"] += request.amount
            self._respond(fwd, RequestStatus.GRANTED, waited=draining)
            self._maybe_proactive()
            return
        # Cannot serve locally.
        if self.config.redistribute and not draining:
            if self.protocol is not None and self.protocol.active:
                if self.protocol.degraded:
                    # Blocked round: nothing more is coming; reject fast.
                    self.counters["rejected"] += 1
                    self._respond(fwd, RequestStatus.REJECTED, waited=draining)
                    return
                # A round is in flight; its outcome answers this request.
                self._queue_pending(fwd)
                return
            can_trigger_now = (
                self.now >= self.last_trigger_at + self.config.reactive_cooldown
            )
            if can_trigger_now or self.config.queue_during_cooldown:
                # Reactive redistribution (Eq. 5): park the request and go
                # get tokens; the queue is answered when the round ends
                # (or when the deferred trigger fires after the cooldown).
                self._queue_pending(fwd)
                self._trigger("reactive")
                return
            # A redistribution just ran and did not leave enough tokens:
            # the cluster is genuinely short right now.  Reject fast
            # instead of stranding the client through the cooldown.
        self.counters["rejected"] += 1
        self._respond(fwd, RequestStatus.REJECTED, waited=draining)

    def _queue_pending(self, fwd: ForwardedRequest) -> None:
        self._pending.append(fwd)
        self._pending_ids.add(fwd.request.request_id)

    def _respond(
        self,
        fwd: ForwardedRequest,
        status: RequestStatus,
        value: int | None = None,
        waited: bool = False,
    ) -> None:
        obs = self.obs
        if obs is not None:
            # ``waited``: the request was answered from a queue drain —
            # it rode out an Avantan round instead of being served from
            # locally held tokens (the token-locality split).
            obs.emit(
                "site.serve",
                node=self.name,
                status=status.value,
                kind=fwd.request.kind.value,
                amount=fwd.request.amount,
                tokens_left=self.state.tokens_left,
                entity=self.entity.id,
                waited=waited,
                trace_id=f"req-{fwd.request.request_id}",
            )
        cache = self._response_cache
        cache[fwd.request.request_id] = self._reply(fwd, status, value)
        if len(cache) > self._RESPONSE_CACHE_LIMIT:
            del cache[next(iter(cache))]  # the oldest answer ages out

    # -- prediction & triggers (§4.2) -----------------------------------------

    def _schedule_epoch(self) -> None:
        self._epoch_event = self.kernel.schedule(
            self.config.epoch_seconds, self._guarded, self._close_epoch, ()
        )

    def _close_epoch(self) -> None:
        demand = self.history.close_epoch()
        if self.predictor is not None:
            self.predictor.update(demand)
        self._epoch_index += 1
        obs = self.obs
        if obs is not None:
            fields: dict[str, Any] = {
                "demand": demand,
                "tokens_left": self.state.tokens_left,
                "epoch": self._epoch_index,
            }
            if self._last_forecast is not None:
                # The forecast made for *this* epoch, one close ago —
                # the prediction scorecard joins it against ``demand``.
                fields["predicted"] = self._last_forecast
            obs.emit("epoch.close", node=self.name, **fields)
            if self.config.proactive and self.predictor is not None:
                self._last_forecast = float(self.predict_next_epoch())
        self._schedule_epoch()

    def predict_next_epoch(self) -> int:
        """Predicted token demand for the next epoch (0 if no predictor)."""
        if self.predictor is None or not self.config.proactive:
            return 0
        return max(0, math.ceil(self.predictor.forecast()))

    def _maybe_proactive(self) -> None:
        """§4.2 proactive path: after serving an acquire, check (at a
        bounded rate) whether predicted demand exceeds local supply."""
        if not self.config.proactive or self.predictor is None:
            return
        if not self.config.redistribute or self._draining:
            return
        if self.protocol is None or self.protocol.active:
            return
        if self.now - self._last_proactive_check < self.config.proactive_check_interval:
            return
        self._last_proactive_check = self.now
        if self.predict_next_epoch() > self.state.tokens_left:
            self._trigger("proactive")

    def _pending_acquire_deficit(self) -> int:
        if self.config.reactive_wanted_literal:
            # Eq. 5 verbatim: ask only for the first unservable request.
            for fwd in self._pending:
                if fwd.request.kind is RequestKind.ACQUIRE:
                    return fwd.request.amount
            return 0
        pending_demand = sum(
            fwd.request.amount
            for fwd in self._pending
            if fwd.request.kind is RequestKind.ACQUIRE
        )
        return max(0, pending_demand - self.state.tokens_left)

    def _trigger(self, reason: str) -> None:
        if self.protocol is None or self.protocol.active:
            return
        cooldown = (
            self.config.redistribution_cooldown
            if reason == "proactive"
            else self.config.reactive_cooldown
        )
        next_allowed = self.last_trigger_at + cooldown
        if self.now < next_allowed:
            if self._deferred_trigger is None:
                self._deferred_trigger = self.kernel.schedule(
                    next_allowed - self.now,
                    self._guarded,
                    self._fire_deferred_trigger,
                    (reason,),
                )
            return
        self.last_trigger_at = self.now
        if self.protocol.trigger():
            self.counters[f"{reason}_triggers"] += 1
            obs = self.obs
            if obs is not None:
                obs.emit("realloc.trigger", node=self.name, reason=reason)

    def _fire_deferred_trigger(self, reason: str) -> None:
        self._deferred_trigger = None
        # Re-validate: the need may have been satisfied in the meantime.
        still_needed = self._pending_acquire_deficit() > 0 or (
            self.predict_next_epoch() > self.state.tokens_left
        )
        if still_needed:
            self._trigger(reason)

    # -- ledger hooks ------------------------------------------------------------

    def wanted_tokens(self) -> int:
        """Algorithm 1 lines 9-12, generalized to also cover queued
        reactive demand and the want horizon."""
        wanted = 0
        horizon_demand = math.ceil(self.predict_next_epoch() * WANT_HORIZON_EPOCHS)
        if horizon_demand > self.state.tokens_left:
            wanted = horizon_demand - self.state.tokens_left
        return max(wanted, self._pending_acquire_deficit())

    def drain_pending(self, degraded: bool) -> None:
        """Answer every queued request.

        Triggers are suppressed while draining: a redistribution started
        mid-drain would snapshot an InitVal that the rest of the drain
        keeps mutating, leaking tokens when that stale snapshot is pooled.
        """
        self._draining = True
        try:
            while self._pending:
                fwd = self._pending.popleft()
                self._pending_ids.discard(fwd.request.request_id)
                self._serve(fwd, draining=True)
        finally:
            self._draining = False
        if not degraded:
            self._maybe_proactive()

    def pledge_opened(self, ballot: Ballot, amount: int) -> None:
        self.counters["pledges_opened"] += 1
        self._persist_pledge()
        self._emit_pledge("open", ballot, amount=amount)

    def pledge_settled(self, ballot: Ballot, reason: str) -> None:
        self.counters["pledge_settlements"] += 1
        self._persist_pledge()
        self._emit_pledge("settle", ballot, reason=reason)

    def pledge_recovering(self, ballot: Ballot, driver: str) -> None:
        self.counters["pledge_recoveries"] += 1
        obs = self.obs
        if obs is not None:
            obs.emit("realloc.trigger", node=self.name, reason="pledge_recovery")
        self._emit_pledge("recover", ballot, driver=driver)

    def _emit_pledge(self, event: str, ballot: Ballot, **detail: Any) -> None:
        obs = self.obs
        if obs is not None:
            # Key order is the trace's byte order (JsonlSink does not sort).
            obs.emit(
                f"pledge.{event}",
                node=self.name,
                value_id=f"{ballot.num}.{ballot.site_id}",
                **detail,
                trace_id=f"rnd-{ballot.num}.{ballot.site_id}",
            )

    def redistribution_applied(self, value, granted, tokens_before) -> None:
        self._persist_entity()
        if self.protocol is not None:
            self.persist_protocol(self.protocol.state)
        obs = self.obs
        if obs is not None:
            ballot = value.value_id
            obs.emit(
                "realloc.apply",
                node=self.name,
                value_id=f"{ballot.num}.{ballot.site_id}",
                tokens_before=tokens_before,
                tokens_after=self.state.tokens_left,
                participants=len(value.states),
                trace_id=f"rnd-{ballot.num}.{ballot.site_id}",
            )
        for listener in self.apply_listeners:
            listener(self, value, granted)

    # -- AvantanHost: transport half --------------------------------------------

    def protocol_send(self, dst: str, payload: Any) -> None:
        self.network.send(self.name, dst, payload)

    def protocol_timer(self, callback):
        return self.timer(callback)

    def protocol_rng(self):
        return self.rng()

    def persist_protocol(self, state: AvantanState) -> None:
        self.wal.append("avantan", state)

    # -- read transactions (§5.8) --------------------------------------------

    def _begin_read(self, fwd: ForwardedRequest) -> None:
        self.counters["reads"] += 1
        read_id = next(_read_ids)
        obs = self.obs
        record = {
            "fwd": fwd,
            "replies": {self.name: self.state.tokens_left},
            "deadline": self.kernel.schedule(
                READ_TIMEOUT, self._guarded, self._finish_read, (read_id,)
            ),
            "span": (
                obs.span_begin("read", node=self.name, trace_id=f"read-{read_id}")
                if obs is not None
                else None
            ),
        }
        self._reads[read_id] = record
        if not self.peers:
            self._finish_read(read_id)
            return
        for peer in self.peers:
            self.network.send(
                self.name, peer, TokenInfoRequest(fwd.request.entity_id, read_id)
            )

    def _on_token_info_reply(self, reply: TokenInfoReply, src: str) -> None:
        record = self._reads.get(reply.read_id)
        if record is None:
            return  # read already answered (timeout) or lost to a crash
        record["replies"][src] = reply.tokens_left
        if len(record["replies"]) == len(self.peers) + 1:
            self._finish_read(reply.read_id)

    def _finish_read(self, read_id: int) -> None:
        record = self._reads.pop(read_id, None)
        if record is None:
            return
        record["deadline"].cancel()
        total = sum(record["replies"].values())
        obs = self.obs
        if obs is not None and record["span"] is not None:
            complete = len(record["replies"]) == len(self.peers) + 1
            obs.span_end(
                record["span"],
                outcome="ok" if complete else "timeout",
                replies=len(record["replies"]),
            )
        self._respond(record["fwd"], RequestStatus.GRANTED, value=total)

    # -- durability -------------------------------------------------------------

    def _persist_entity(self) -> None:
        self.wal.append(
            "entity", (self.state.tokens_left, self.state.tokens_wanted)
        )

    def _persist_pledge(self) -> None:
        self.wal.append(
            "pledge",
            None
            if self.pledge is None
            else (self.pledge.num, self.pledge.site_id, self.pledge_amount),
        )

    def crash(self) -> None:
        super().crash()
        if self.protocol is not None:
            self.protocol.on_crash()
        # Volatile state evaporates: queued requests and reads are lost
        # (their clients simply never hear back).
        self._pending.clear()
        self._pending_ids.clear()
        self._reads.clear()
        self._deferred_trigger = None
        # recover() starts a fresh epoch chain; a survivor of the old one
        # would close every epoch twice after a sub-epoch outage.
        self._epoch_event.cancel()

    def recover(self) -> None:
        super().recover()
        # Reconstruct from the replayed log (§3.1: "reconstructs its
        # previous state ... stored on stable storage").  A log with no
        # entity record means the disk never saw this site's state —
        # fall back to the initial allocation, the only durable fact.
        replayed = self.wal.replay()
        stored = replayed.get("entity")
        if stored is not None:
            tokens_left, tokens_wanted = stored
        else:
            tokens_left, tokens_wanted = self.initial_tokens, 0
        self.state.tokens_left = tokens_left
        self.state.tokens_wanted = tokens_wanted
        # Restore the pledge exactly as the disk recorded it: a missing
        # record means no pledge ever reached stable storage (or the
        # last record settled it) — either way nothing is frozen.
        pledge_record = replayed.get("pledge")
        if pledge_record is not None:
            num, site_id, amount = pledge_record
            self.pledge = Ballot(num, site_id)
            self.pledge_amount = amount
        else:
            self.pledge = None
            self.pledge_amount = 0
        proto_state = replayed.get("avantan")
        if self.protocol is not None and proto_state is not None:
            self.protocol.on_recover(proto_state)
        self._schedule_epoch()
        # Recovered idle with an unresolved pledge (the crash hid the
        # pledged round's outcome): re-elect to learn it before any
        # request can be served from the pledged balance.
        self.recover_pledge(driver="recovery")

    # -- introspection -------------------------------------------------------------

    def redistribution_stats(self) -> dict[str, int]:
        stats = self.protocol.stats.as_dict() if self.protocol is not None else {}
        stats.update(self.counters)
        return stats
