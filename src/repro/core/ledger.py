"""The redistribution ledger: token accounting around an Avantan round.

Samya's safety argument (Eq. 1, §4.3) does not live in the consensus
protocol but in the few rules *around* it, and this module is their only
implementation.  :class:`RedistributionLedger` is the token-accounting
half of :class:`~repro.core.avantan.base.AvantanHost` over any
:class:`~repro.core.entity.EntityState` — the object state of a
:class:`~repro.core.site.SamyaSite` or one
:class:`~repro.scale.entity_table.EntityView` row of a scale host's
table.  It owns three rules:

* **Reserve.**  Tokens pooled in an unresolved round are untouchable: a
  decision will replace them (:meth:`reserved_tokens`).
* **Delta apply.**  A decided value replaces the pooled contribution,
  exactly once per ``value_id``, and keeps whatever was earned since
  pooling (:meth:`apply_redistribution`).
* **Pledge.**  A cohort answering a foreign election freezes the balance
  it reported until the outcome of that round is knowable; a round that
  ends without settling the pledge re-elects instead of serving
  (:meth:`snapshot_init_val`, :meth:`on_protocol_idle`,
  :meth:`recover_pledge`).

Hosts differ only through the no-op-by-default hooks at the bottom: what
TokensWanted is, how the queue drains, and what is persisted, traced and
counted.
"""

from __future__ import annotations

from math import inf

from repro.core.avantan.base import AvantanProtocol
from repro.core.avantan.state import AcceptValue, Ballot
from repro.core.entity import EntityState, SiteTokenState, TokenError
from repro.core.reallocation import redistribute_tokens


class RedistributionLedger:
    """Pledge / reserve / delta-apply accounting for one entity at one site.

    A mixin: the host supplies ``name`` and ``now`` (attributes or
    properties) and the transport half of ``AvantanHost``, and sets
    ``protocol`` once its peers are known.
    """

    __slots__ = ("state", "protocol", "pledge", "pledge_amount", "last_trigger_at")

    #: Reallocation strategy handed to ``redistribute_tokens`` (``None``
    #: is Algorithm 2); hosts with a pluggable one shadow this.
    reallocator = None

    def __init__(self, state: EntityState) -> None:
        self.state = state
        self.protocol: AvantanProtocol | None = None
        #: Ballot of the oldest *unresolved pledge*: we answered a foreign
        #: election with our InitVal, so those tokens may be pooled in a
        #: value we have not seen decide or die.  Until resolved, the
        #: pledged balance must not be served — under message loss the
        #: pledged round can decide without us, grant our tokens away,
        #: and only tell us later (the conservation race the fault tests
        #: pin).  Resolution: we apply a value that includes us, we see
        #: the pledged ballot's own decided value, or (Avantan[*]) we
        #: aborted the pledged ballot and refuse it forever; a round that
        #: ends any other way re-elects instead of draining (see
        #: ``on_protocol_idle``).
        self.pledge: Ballot | None = None
        self.pledge_amount = 0
        self.last_trigger_at = -inf

    # -- AvantanHost: token accounting ---------------------------------------

    def snapshot_init_val(self) -> SiteTokenState:
        """Recompute TokensWanted (Algorithm 1 lines 9-12) and snapshot
        the state, opening a pledge when the election is foreign."""
        state = self.state
        name = self.name
        state.tokens_wanted = self.wanted_tokens()
        if self.protocol is not None:
            ballot = self.protocol.state.ballot_num
            if ballot.site_id != name and self.pledge is None:
                # Responding to a *foreign* election: the snapshot we
                # return may end up pooled in that leader's value.
                # Remember the oldest such outstanding pledge (a later
                # one pools the same frozen balance, so the first
                # suffices); the host's hook makes it durable — a crash
                # must not forget it.
                self.pledge = ballot
                self.pledge_amount = state.tokens_left
                self.pledge_opened(ballot, self.pledge_amount)
        return state.snapshot(name)

    def apply_redistribution(self, value: AcceptValue) -> None:
        name = self.name
        mine = value.state_of(name)
        if self.pledge is not None and (
            value.value_id == self.pledge or mine is not None
        ):
            # The pledged round's own value arrived (with or without us),
            # or a newer value pooled us — which, by the leader-side
            # stale-participant resolution, implies every older decided
            # value of ours reached us first.  Either way: settled.
            self._settle_pledge(
                "decided" if value.value_id == self.pledge else "pooled"
            )
        proto_state = self.protocol.state if self.protocol is not None else None
        if proto_state is not None:
            if value.value_id in proto_state.applied:
                return
            proto_state.remember_applied_value(value)
        state = self.state
        granted: dict[str, int] | None = None
        tokens_before = state.tokens_left
        if mine is not None:
            granted = redistribute_tokens(value.states, self.reallocator)
            # Delta form: the grant replaces the pooled contribution but
            # keeps anything earned since pooling (releases accepted while
            # the site served in degraded mode).  In normal operation the
            # balance is frozen during the round, so surplus == 0.
            surplus = tokens_before - mine.tokens_left
            if surplus < 0:
                raise TokenError(
                    f"{name}/{state.entity_id} spent below its pooled "
                    f"contribution ({tokens_before} < {mine.tokens_left}) — "
                    f"reserve accounting is broken"
                )
            state.tokens_left = granted[name] + surplus
            state.tokens_wanted = 0
        self.redistribution_applied(value, granted, tokens_before)

    def on_protocol_idle(self) -> None:
        """Round ended (decided or aborted): answer every queued request,
        unless a pledge is still unresolved."""
        if self.pledge is not None and self.protocol is not None:
            if self.pledge in self.protocol.state.dead_ballots:
                # Avantan[*]: we aborted the pledged round and refuse its
                # ballot forever, so its value can never decide — the
                # pledged tokens were never granted away.
                self._settle_pledge("dead")
            else:
                # The round that just ended did not settle the pledge
                # (e.g. a higher-ballot value decided without us while
                # the pledged round's decision is still in flight).
                # Serving now could spend tokens the pledged round has
                # concurrently granted away — re-elect instead: the
                # election's recovery exchange either surfaces the
                # pledged round's decided value or pools our tokens into
                # a fresh value that includes us.
                self.recover_pledge()
                return
        self.drain_pending(degraded=False)

    def on_protocol_degraded(self) -> None:
        """The round is blocked: answer the queue best-effort now rather
        than holding clients hostage to an unreachable majority."""
        self.drain_pending(degraded=True)

    # -- reserve accounting --------------------------------------------------

    def reserved_tokens(self) -> int:
        """Tokens pooled in an unresolved round — untouchable until the
        round decides or aborts, because a decision replaces them.

        An unresolved *pledge* stays frozen even while the protocol is
        inactive: a pledged site normally re-elects straight from
        ``on_protocol_idle``, but a crashed-then-recovering site can be
        momentarily idle and must not spend the pledged balance."""
        pledged = self.pledge_amount if self.pledge is not None else 0
        if self.protocol is None or not self.protocol.active:
            return pledged
        state = self.protocol.state
        reserved = pledged
        if state.init_val is not None:
            reserved = max(reserved, state.init_val.tokens_left)
        if state.accept_val is not None:
            mine = state.accept_val.state_of(self.name)
            if mine is not None:
                reserved = max(reserved, mine.tokens_left)
        return reserved

    def available_tokens(self) -> int:
        return self.state.tokens_left - self.reserved_tokens()

    # -- pledge lifecycle ----------------------------------------------------

    @property
    def unresolved_pledge(self) -> Ballot | None:
        """Ballot of the oldest unresolved pledge (None when settled)."""
        return self.pledge

    @property
    def pledged_tokens(self) -> int:
        """Balance frozen under the unresolved pledge (0 when settled)."""
        return self.pledge_amount if self.pledge is not None else 0

    def _settle_pledge(self, reason: str) -> None:
        ballot = self.pledge
        self.pledge = None
        self.pledge_amount = 0
        self.pledge_settled(ballot, reason)

    def recover_pledge(self, driver: str = "idle") -> bool:
        """Re-elect (bypassing the reactive cooldown) to resolve an
        outstanding pledge before the queue may drain.  Called from
        ``on_protocol_idle``, from the host's ``recover``, and by the
        liveness watchdog when a pledge goes stale with the protocol
        inactive."""
        if self.pledge is None or self.protocol is None or self.protocol.active:
            return False
        # trigger() may terminate synchronously (degenerate clusters) and
        # settle the pledge before it returns — capture the ballot first.
        ballot = self.pledge
        self.last_trigger_at = self.now
        self.protocol.trigger()
        self.pledge_recovering(ballot, driver)
        return True

    # -- host hooks (no-op by default) ---------------------------------------

    def wanted_tokens(self) -> int:
        """TokensWanted for the snapshot about to be pooled."""
        return 0

    def drain_pending(self, degraded: bool) -> None:
        """Answer the queued requests (best-effort when ``degraded``)."""

    def pledge_opened(self, ballot: Ballot, amount: int) -> None:
        """``amount`` tokens were just frozen under ``ballot``."""

    def pledge_settled(self, ballot: Ballot, reason: str) -> None:
        """The pledge on ``ballot`` resolved (decided / pooled / dead)."""

    def pledge_recovering(self, ballot: Ballot, driver: str) -> None:
        """An election was just started to resolve the pledge on ``ballot``."""

    def redistribution_applied(
        self, value: AcceptValue, granted: dict[str, int] | None, tokens_before: int
    ) -> None:
        """``value`` was applied; ``granted`` is ``None`` when it decided
        without this site (nothing but the idempotence window moved)."""
