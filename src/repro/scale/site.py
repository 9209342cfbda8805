"""A scale site: one actor hosting every entity of a region.

``core/site.py`` models one entity per site with full fidelity — WAL,
service-time queueing, prediction, reads.  At 10^5-10^6 entities, one
actor per (entity, region) is exactly the per-object overhead the scale
subsystem exists to remove.  :class:`ScaleSiteHost` flips the layout:

* Token state for *all* hosted entities lives in one
  :class:`~repro.scale.entity_table.EntityTable` (contiguous columns).
* Client requests are **local calls** (:meth:`submit_row`), not messages —
  the workload driver colocates with the host and names the entity by its
  table row, so the per-request cost is a few array ops, which is what
  lets one process push millions of simulated requests through a sweep
  point.  The row is the host's one internal key; an entity id appears
  only where something outside the host reads it: ``EntityScoped`` on the
  wire, demand-tracker labels, :meth:`active_rounds`, and the by-id
  entries :meth:`submit` / :meth:`protocol_for`.
* Per-entity Avantan protocol instances are created **lazily**, only
  when an entity first participates in a redistribution, behind a
  :class:`_EntityProtocolHost` adapter implementing the
  :class:`~repro.core.avantan.base.AvantanHost` surface.  The protocol
  code is byte-for-byte the single-entity implementation, and so is the
  token accounting around it: the adapter is a
  :class:`~repro.core.ledger.RedistributionLedger` over an
  :class:`~repro.scale.entity_table.EntityView` of the entity's row, the
  same pledge / reserve / delta-apply code ``SamyaSite`` runs.  Instances are
  **never evicted**: a late or duplicated ``DecisionMsg`` for an old
  round must find the instance's ``applied`` value-id set, or it would
  re-apply a stale allocation; the instance footprint is proportional to
  entities that ever redistributed, not to all entities.
* Cross-site protocol traffic is wrapped in
  :class:`~repro.scale.batching.EntityScoped` for dispatch and rides the
  (usually batching) transport.

Documented simplifications versus ``SamyaSite``, all scale-immaterial:
no per-message service-time queueing (zero service time), no prediction
module (redistributions are reactive), no WAL (the in-memory table is
treated as stable storage — a recovered host resumes with the state it
crashed with, the same outcome a perfect WAL replay produces), and no
read transactions.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.avantan.majority import AvantanMajority
from repro.core.ledger import RedistributionLedger
from repro.net.message import EnvelopeDedup, Message
from repro.net.regions import Region
from repro.net.transport import Clock, Transport
from repro.scale.batching import EntityScoped
from repro.scale.entity_table import EntityTable
from repro.sim.process import Actor

#: Avantan timeouts of every per-entity protocol instance (the
#: ``AvantanProtocol`` constructor's), shorter than ``SamyaSite``'s.
ELECTION_TIMEOUT = 0.8
COHORT_TIMEOUT = 2.0
BLOCKED_RETRY_INTERVAL = 2.0

#: Minimum gap between reactive triggers for one entity.
REACTIVE_COOLDOWN = 0.5

#: How many redistribution rounds a queued acquire may wait through
#: before it is rejected (bounds retries when the cluster is genuinely
#: out of tokens).
MAX_ROUND_WAITS = 6


class _EntityProtocolHost(RedistributionLedger):
    """AvantanHost adapter: one entity's protocol view of a scale host.

    The token accounting is the inherited ledger over an
    :class:`~repro.scale.entity_table.EntityView` of the entity's row.
    """

    __slots__ = ("site", "entity_id", "row", "name", "kernel")

    # Deliberately no bus: per-phase protocol spans at 10^5 entities
    # would swamp any trace.  Message-level telemetry still flows from
    # the transport.
    obs = None

    def __init__(self, site: "ScaleSiteHost", entity_id: str, row: int) -> None:
        super().__init__(site.table.view(row))
        self.site = site
        self.name = site.name
        self.kernel = site.kernel
        self.entity_id = entity_id
        self.row = row
        self.protocol = AvantanMajority(
            self,
            site.peers,
            election=ELECTION_TIMEOUT,
            cohort=COHORT_TIMEOUT,
            blocked_retry=BLOCKED_RETRY_INTERVAL,
        )

    @property
    def now(self) -> float:
        return self.kernel.now

    # -- ledger hooks ---------------------------------------------------------

    def wanted_tokens(self) -> int:
        return self.site.queued_deficit(self.row)

    def drain_pending(self, degraded: bool) -> None:
        self.site._drain(self.row, degraded)

    def pledge_recovering(self, ballot, driver: str) -> None:
        site = self.site
        site.pledge_recoveries += 1
        site.rounds_triggered += 1
        if site.demand is not None:
            site.demand.trigger(site.name, "pledge_recovery")

    def redistribution_applied(self, value, granted, tokens_before) -> None:
        if granted is not None:
            self.site.rounds_applied += 1

    # -- AvantanHost: transport half ------------------------------------------

    def protocol_send(self, dst: str, payload: Any) -> None:
        self.site.network.send(self.name, dst, EntityScoped(self.entity_id, payload))

    def protocol_timer(self, callback):
        return self.site.timer(callback)

    def protocol_rng(self):
        return self.site.rng()

    def persist_protocol(self, state) -> None:
        # The in-memory protocol state doubles as the stable store (see
        # module docstring); nothing to write.
        return


class ScaleSiteHost(Actor):
    """All of one region's entities behind a single endpoint."""

    #: Queue capacity per entity; overflow rejects immediately.
    max_queue = 1024

    def __init__(
        self,
        kernel: Clock,
        name: str,
        region: Region,
        network: Transport,
    ) -> None:
        super().__init__(kernel, name)
        self.region = region
        self.network = network
        self.table = EntityTable()
        self.peers: list[str] = []
        #: row -> adapter; populated lazily, never evicted.
        self._protocols: dict[int, _EntityProtocolHost] = {}
        #: row -> queued acquires [amount, rounds_waited].
        self._pending: dict[int, deque[list[int]]] = {}
        #: rows with a deferred (cooldown-parked) retrigger.
        self._deferred: set[int] = set()
        self._envelopes = EnvelopeDedup()
        #: Optional :class:`~repro.obs.demand.DemandTracker`, set by
        #: :meth:`instrument`.  The scale request path is a local
        #: call, not a message — per-request events would swamp any
        #: trace at 10^5 entities — so demand telemetry here is direct
        #: O(1) tracker updates behind the same ``is None`` seam every
        #: other instrumentation point uses.
        self.demand = None
        #: Mailbox gauge (aggregate queued acquires across entities) of
        #: the run's :class:`~repro.obs.flow.FlowTracker`, cached by
        #: :meth:`instrument`; ``None`` with flow off.
        self._flow_mailbox = None
        #: Queued acquires across all entities, maintained incrementally
        #: (``queued_requests()`` recomputes; this feeds the gauge).
        self._queued_total = 0
        self.rounds_triggered = 0
        self.rounds_applied = 0
        self.unknown_entity = 0
        self.pledge_recoveries = 0
        network.attach(self, region)

    # -- wiring --------------------------------------------------------------

    def connect(self, host_names: list[str]) -> None:
        self.peers = [peer for peer in host_names if peer != self.name]

    def instrument(self, instruments) -> None:
        """Take the demand tracker and the mailbox gauge; either may be
        ``None``, and the request path then pays one ``is None`` test."""
        self.demand = instruments.host_demand
        flow = instruments.flow
        self._flow_mailbox = (
            None if flow is None else flow.queue(f"scale.mailbox.{self.name}")
        )

    def protocol_for(self, entity_id: str) -> _EntityProtocolHost:
        return self._protocol_at(self.table.index_of(entity_id))

    def _protocol_at(self, row: int) -> _EntityProtocolHost:
        adapter = self._protocols.get(row)
        if adapter is None:
            adapter = _EntityProtocolHost(self, self.table.ids[row], row)
            self._protocols[row] = adapter
        return adapter

    # -- message entry --------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.crashed:
            return
        if self._envelopes.seen(message.msg_id):
            return  # duplicated envelope (fault layer / retransmission)
        payload = message.payload
        if isinstance(payload, EntityScoped):
            row = self.table.get(payload.entity_id)
            if row is None:
                self.unknown_entity += 1
                return
            self._protocol_at(row).protocol.handle(payload.payload, message.src)

    # -- the request path ------------------------------------------------------

    def submit(self, entity_id: str, acquire: bool, amount: int) -> str:
        """:meth:`submit_row` by entity id; ``"unknown"`` for an id this
        host does not hold."""
        row = self.table.get(entity_id)
        if row is None:
            self.unknown_entity += 1
            return "unknown"
        return self.submit_row(row, acquire, amount)

    def submit_row(self, row: int, acquire: bool, amount: int) -> str:
        """Serve one client request locally.

        Returns ``"committed"``, ``"rejected"``, or ``"queued"`` (an
        acquire parked behind a redistribution).
        """
        table = self.table
        left = table.tokens_left
        demand = self.demand
        if not acquire:
            left[row] += amount
            table.released[row] += amount
            table.committed[row] += 1
            if demand is not None:
                demand.serve(
                    self.name, table.ids[row], "granted", kind="release",
                    tokens_left=left[row],
                )
            return "committed"
        adapter = self._protocols.get(row)
        active = adapter is not None and adapter.protocol.active
        if active and not adapter.protocol.degraded:
            # §4.3: requests queue while the entity's round is in flight.
            return self._enqueue(row, amount)
        reserved = adapter.reserved_tokens() if adapter is not None else 0
        if 0 < amount <= left[row] - reserved:
            left[row] -= amount
            table.acquired[row] += amount
            table.committed[row] += 1
            if demand is not None:
                demand.serve(
                    self.name, table.ids[row], "granted",
                    tokens_left=left[row],
                )
            return "committed"
        if active and adapter.protocol.degraded:
            table.rejected[row] += 1
            if demand is not None:
                demand.serve(
                    self.name, table.ids[row], "rejected",
                    tokens_left=left[row],
                )
            return "rejected"
        status = self._enqueue(row, amount)
        if status == "queued":
            self._maybe_trigger(row)
        return status

    def _enqueue(self, row: int, amount: int) -> str:
        queue = self._pending.get(row)
        if queue is None:
            queue = deque()
            self._pending[row] = queue
        if len(queue) >= self.max_queue:
            self.table.rejected[row] += 1
            if self._flow_mailbox is not None:
                self._flow_mailbox.drop()
            if self.demand is not None:
                self.demand.serve(
                    self.name, self.table.ids[row], "rejected",
                    tokens_left=self.table.tokens_left[row],
                )
            return "rejected"
        queue.append([amount, 0])
        self._queued_total += 1
        if self._flow_mailbox is not None:
            self._flow_mailbox.enqueue(self._queued_total)
        return "queued"

    def queued_deficit(self, row: int) -> int:
        """Tokens the queue needs beyond the local balance (Eq. 5,
        generalized to the whole queue as the non-literal SamyaSite
        mode does)."""
        queue = self._pending.get(row)
        if not queue:
            return 0
        demand = sum(item[0] for item in queue)
        return max(0, demand - self.table.tokens_left[row])

    # -- triggers and drains ----------------------------------------------------

    def _maybe_trigger(self, row: int) -> None:
        adapter = self._protocol_at(row)
        if adapter.protocol.active:
            return
        wait = adapter.last_trigger_at + REACTIVE_COOLDOWN - self.now
        if wait > 0:
            if row not in self._deferred:
                self._deferred.add(row)
                self.after(wait, self._deferred_trigger, row)
            return
        adapter.last_trigger_at = self.now
        if adapter.protocol.trigger():
            self.rounds_triggered += 1
            if self.demand is not None:
                self.demand.trigger(self.name, "reactive")

    def _deferred_trigger(self, row: int) -> None:
        self._deferred.discard(row)
        if self.queued_deficit(row) > 0 or self._pending.get(row):
            self._maybe_trigger(row)

    def _drain(self, row: int, degraded: bool) -> None:
        """Answer the entity's queue after a round ends (or blocks).

        Unservable acquires re-queue for the next round up to
        ``MAX_ROUND_WAITS`` rounds — with bounded patience every queued
        request eventually commits when the cluster has the tokens, and
        is rejected when it provably does not.  A *degraded* drain
        serves what the unreserved balance allows and rejects nothing:
        the blocked round may still complete after a heal.
        """
        queue = self._pending.get(row)
        if not queue:
            return
        popped = len(queue)
        table = self.table
        demand = self.demand
        adapter = self._protocols[row]
        keep: deque[list[int]] = deque()
        reserved = adapter.reserved_tokens() if degraded else 0
        while queue:
            item = queue.popleft()
            amount, waits = item
            if 0 < amount <= table.tokens_left[row] - reserved:
                table.tokens_left[row] -= amount
                table.acquired[row] += amount
                table.committed[row] += 1
                if demand is not None:
                    # Served only after queueing through a round: the
                    # non-local half of the token-locality split.
                    demand.serve(
                        self.name, table.ids[row], "granted", waited=True,
                        tokens_left=table.tokens_left[row],
                    )
            elif degraded:
                keep.append(item)
            elif waits + 1 < MAX_ROUND_WAITS:
                item[1] = waits + 1
                keep.append(item)
            else:
                table.rejected[row] += 1
                if demand is not None:
                    demand.serve(
                        self.name, table.ids[row], "rejected", waited=True,
                        tokens_left=table.tokens_left[row],
                    )
        removed = popped - len(keep)
        if removed:
            self._queued_total -= removed
            if self._flow_mailbox is not None:
                self._flow_mailbox.drain(removed, self._queued_total)
        if keep:
            self._pending[row] = keep
            if not degraded:
                self._maybe_trigger(row)
        else:
            self._pending.pop(row, None)

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> None:
        super().crash()
        for adapter in self._protocols.values():
            adapter.protocol.on_crash()
        # Volatile state evaporates; the table (modeled stable storage)
        # and protocol states survive.
        for row, queue in self._pending.items():
            self.table.rejected[row] += len(queue)
        if self._queued_total:
            if self._flow_mailbox is not None:
                self._flow_mailbox.drain(self._queued_total, 0)
            self._queued_total = 0
        self._pending.clear()
        self._deferred.clear()

    def recover(self) -> None:
        super().recover()
        for adapter in self._protocols.values():
            adapter.protocol.on_recover(adapter.protocol.state)
        for adapter in self._protocols.values():
            adapter.recover_pledge(driver="recovery")

    # -- introspection -------------------------------------------------------------

    def active_rounds(self) -> list[str]:
        """Entity ids with a protocol round in flight on this host."""
        ids = self.table.ids
        return [
            ids[row]
            for row, adapter in self._protocols.items()
            if adapter.protocol.active
        ]

    def protocol_count(self) -> int:
        return len(self._protocols)

    def queued_requests(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def stats(self) -> dict[str, int]:
        return {
            "entities": len(self.table),
            "protocols": len(self._protocols),
            "rounds_triggered": self.rounds_triggered,
            "rounds_applied": self.rounds_applied,
            "queued": self.queued_requests(),
            "unknown_entity": self.unknown_entity,
            "dedup_evictions": self._envelopes.evictions,
            "pledge_recoveries": self.pledge_recoveries,
        }
