"""Avantan[*] — any-subset redistribution (§4.3.2).

Algorithm 1's round (:class:`~repro.core.avantan.base.AvantanProtocol`)
with the paper's three changes, each in the method named:

(i)   the leader proceeds as soon as the collected ElectionOk-Values can
      satisfy its token requirement (not a majority), and the collected
      responders become R_t; everyone else is told to discard the round
      (``_on_promises``, ``_cohorts``, ``_on_late_promise``);
(ii)  a cohort participates in at most one redistribution at a time — it
      rejects concurrent Election-GetValue messages, even higher ballots
      (``_on_election_get_value``);
(iii) the decision requires Accept-oks from *all* of R_t (``_quorum``).

Failure recovery is cohort-driven (§4.3.2, ``_on_timeout``): a timed-out
participant with no accepted value aborts (the leader cannot have decided
without its Accept-ok); one holding a value queries R_t and decides or
aborts based on what the others hold.  An aborted round's ballot goes on
a persistent dead list (``AvantanProtocol._abort``) so a late
Accept-Value can never re-pool tokens the site has already resumed
spending — the concrete mechanism behind the paper's "sensitive to
message losses" caveat.
"""

from __future__ import annotations

from repro.core.avantan.base import AvantanProtocol, Phase, Role
from repro.core.avantan.state import AcceptValue
from repro.core.messages import (
    AbortRedistribution,
    AcceptValueMsg,
    DecisionMsg,
    DiscardRedistribution,
    ElectionGetValue,
    ElectionOkValue,
    ElectionReject,
    RecoveryQuery,
    RecoveryReply,
)


class AvantanStar(AvantanProtocol):
    """One site's engine for the any-subset variant."""

    HANDLERS = {
        **AvantanProtocol.HANDLERS,
        ElectionReject: "_on_election_reject",
        DiscardRedistribution: "_on_discard",
        AbortRedistribution: "_on_abort",
        RecoveryQuery: "_on_recovery_query",
        RecoveryReply: "_on_recovery_reply",
    }

    # -- leader side -----------------------------------------------------

    def _promise(self) -> ElectionOkValue:
        state = self.state
        return ElectionOkValue(
            ballot=state.ballot_num,
            init_val=state.init_val,
            accept_val=None,
            accept_num=None,
            decision=False,
        )

    def _start_election(self) -> None:
        self._rejections: set[str] = set()  # sites that refused this election
        super()._start_election()
        # Degenerate single-site cluster: nothing to wait for.
        self._on_promises()

    def _on_late_promise(self, src: str) -> None:
        # R_t is already formed; latecomers are excused from the round.
        if src not in self.state.accept_val.participants:
            self._send(src, DiscardRedistribution(self.state.ballot_num))

    def _on_election_reject(self, msg: ElectionReject, src: str) -> None:
        if self.role is not Role.LEADER or self.phase is not Phase.ELECTION:
            return
        if msg.ballot != self.state.ballot_num:
            return
        self._rejections.add(src)
        # Everyone has answered and the pool still cannot satisfy us: give
        # up now instead of waiting out the election timer.
        if len(self._responses) + len(self._rejections) >= self.cluster_size:
            self._abort(self.peers, DiscardRedistribution)

    def _on_promises(self) -> None:
        """Change (i): proceed once collected spares cover our demand."""
        spare = sum(r.init_val.tokens_left for r in self._responses.values())
        if spare < self.state.init_val.tokens_wanted:
            return
        if len(self._responses) < min(2, self.cluster_size):
            # A solo "redistribution" moves nothing; wait for a peer.
            return
        self._propose(self._fresh_value())

    def _cohorts(self, value: AcceptValue) -> list[str]:
        """R_t without this site, in value order."""
        return [peer for peer in value.participants if peer != self.host.name]

    def _quorum(self, value: AcceptValue) -> bool:
        """Change (iii): decision needs Accept-oks from ALL of R_t."""
        return self._accept_oks.issuperset(value.participants)

    # -- cohort side -------------------------------------------------------

    def _on_election_get_value(self, msg: ElectionGetValue, src: str) -> None:
        state = self.state
        if (
            self.active  # change (ii): one redistribution at a time
            or msg.ballot <= state.ballot_num
            or msg.ballot in state.dead_ballots
        ):
            self._send(src, ElectionReject(msg.ballot, msg.entity_id))
        else:
            super()._on_election_get_value(msg, src)

    def _on_accept_value(self, msg: AcceptValueMsg, src: str) -> None:
        state = self.state
        if msg.ballot in state.dead_ballots:
            # We aborted this round; the leader must abort it everywhere.
            self._send(src, AbortRedistribution(msg.ballot))
        elif (
            self.role is Role.COHORT
            and src == self._locked_to
            and msg.ballot == state.ballot_num
        ):
            self._accept(msg, src)

    def _on_decision(self, msg: DecisionMsg, src: str) -> None:
        held = self.state.accept_val
        value = msg.accept_val
        if self.active and held is not None and held.value_id == value.value_id:
            self._finish_decided(value)
        else:
            # Idle, or busy with a different round: the application is
            # idempotent, so just make sure the tokens land.
            self.host.apply_redistribution(value)

    def _on_discard(self, msg: DiscardRedistribution, src: str) -> None:
        """The leader excluded us from R_t (or gave up): forget the round."""
        if not self.active or src != self._locked_to:
            return
        if msg.ballot != self.state.ballot_num:
            return
        if self.state.accept_val is not None:
            # Defensive: a leader never discards a site it sent a value to;
            # if it somehow did, recovery (not discard) must settle this.
            return
        self._abort()

    def _on_abort(self, msg: AbortRedistribution, src: str) -> None:
        state = self.state
        if not self.active or msg.ballot != state.ballot_num or state.decision:
            return
        if self.role is Role.LEADER and state.accept_val is not None:
            # A participant refused our value: the round can never decide
            # (we need ALL Accept-oks).  Kill it everywhere.
            self._abort(self._cohorts(state.accept_val))
        else:
            self._abort()

    # -- cohort-driven failure recovery (§4.3.2) ---------------------------

    def _on_recovery_query(self, msg: RecoveryQuery, src: str) -> None:
        state = self.state
        held = state.accept_val
        if msg.value_id in state.applied:
            reply = (None, True, True)
        elif held is not None and held.value_id == msg.value_id:
            reply = (held, state.decision, False)
        else:
            # We never accepted this value.  Refusing it forever makes the
            # querier's abort decision stable even if the original
            # Accept-Value is still in flight towards us.
            self._mark_dead(msg.ballot)
            reply = (None, False, False)
        self._send(src, RecoveryReply(msg.ballot, msg.value_id, *reply))

    def _start_recovery(self) -> None:
        state = self.state
        value = state.accept_val
        assert value is not None
        self.phase = Phase.RECOVERY
        self._accept_oks = set()
        query = RecoveryQuery(state.ballot_num, value.value_id)
        self._broadcast(query, self._cohorts(value))
        self._restart_timer(self._blocked_retry)
        # Degenerate R_t = {dead leader, us}: there is nobody else to ask,
        # and the value is on every non-leader participant — decide it.
        self._check_recovery_complete()

    def _on_recovery_reply(self, msg: RecoveryReply, src: str) -> None:
        value = self.state.accept_val
        if self.phase is not Phase.RECOVERY or value is None:
            return
        if msg.value_id != value.value_id:
            return
        if msg.applied or msg.decision:
            # Someone saw the decision: it is decided, propagate and apply.
            self._decide(value, self._cohorts(value))
        elif msg.accept_val is None:
            # A participant never accepted: no decision can ever form.
            self._abort(self._cohorts(value))
        else:
            self._accept_oks.add(src)
            self._check_recovery_complete()

    def _check_recovery_complete(self) -> None:
        """All participants except the (dead) leader hold the value: the
        old leader must have stored it everywhere — decide on its behalf."""
        value = self.state.accept_val
        cohorts = self._cohorts(value)
        leader = value.value_id.site_id
        if all(p in self._accept_oks for p in cohorts if p != leader):
            self._decide(value, cohorts)

    # -- timeouts ----------------------------------------------------------

    def _on_timeout(self) -> None:
        state = self.state
        value = state.accept_val
        if self.role is Role.LEADER:
            if self.phase is Phase.ELECTION:
                self._abort(self.peers, DiscardRedistribution)
            else:
                # Blocked waiting for all Accept-oks: nudge the laggards.
                self._resend_value(
                    [p for p in self._cohorts(value) if p not in self._accept_oks]
                )
        elif self.role is Role.COHORT:
            if state.decision and value is not None:
                self._finish_decided(value)
            elif value is None:
                # §4.3.2 case (i): the leader cannot have decided without
                # our Accept-ok — abort, and tell the leader so it aborts.
                leader = self._locked_to
                self._abort([leader] if leader is not None else ())
            else:
                # §4.3.2 case (ii): we hold a value; ask R_t what happened.
                # Until it resolves we are blocked — serve best-effort.
                self._enter_degraded()
                self._start_recovery()
