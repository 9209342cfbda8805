"""Avantan[*] — any-subset redistribution (§4.3.2).

Same failure-free skeleton as Algorithm 1 with the paper's three changes:

(i)   the leader proceeds as soon as the collected ElectionOk-Values can
      satisfy its token requirement (not a majority), and the collected
      responders become R_t; everyone else is told to discard the round;
(ii)  a cohort participates in at most one redistribution at a time — it
      rejects concurrent Election-GetValue messages, even higher ballots;
(iii) the decision requires Accept-oks from *all* of R_t.

Failure recovery is cohort-driven (§4.3.2): a timed-out participant with
no accepted value aborts (the leader cannot have decided without its
Accept-ok); one holding a value queries R_t and decides or aborts based
on what the others hold.  An aborted round's ballot goes on a persistent
dead list so a late Accept-Value can never re-pool tokens the site has
already resumed spending — the concrete mechanism behind the paper's
"sensitive to message losses" caveat.
"""

from __future__ import annotations

from typing import Any

from repro.core.avantan.base import AvantanProtocol, Phase, Role
from repro.core.avantan.state import AcceptValue, Ballot
from repro.core.messages import (
    AbortRedistribution,
    AcceptOk,
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

    def __init__(self, host, peers) -> None:
        super().__init__(host, peers)
        self._responses: dict[str, ElectionOkValue] = {}
        self._rejections: set[str] = set()
        self._participants: tuple[str, ...] = ()
        self._accept_oks: set[str] = set()
        self._locked_to: str | None = None
        self._recovery_replies: dict[str, RecoveryReply] = {}

    # -- leader side -----------------------------------------------------

    def trigger(self) -> bool:
        if self.active:
            return False
        self.stats.triggered += 1
        self.stats.leader_rounds += 1
        state = self.state
        state.ballot_num = state.ballot_num.next_for(self.host.name)
        state.init_val = self.host.snapshot_init_val()
        self.role = Role.LEADER
        self.phase = Phase.ELECTION
        self._track_round_entry(Role.LEADER)
        self._locked_to = self.host.name
        self._responses = {
            self.host.name: ElectionOkValue(
                ballot=state.ballot_num,
                init_val=state.init_val,
                accept_val=None,
                accept_num=None,
                decision=False,
            )
        }
        self._rejections = set()
        self._accept_oks = set()
        self._participants = ()
        self.host.persist_protocol(state)
        self._broadcast(ElectionGetValue(state.ballot_num, state.init_val.entity_id))
        self._restart_timer(self._config_election_timeout)
        # Degenerate single-site cluster: nothing to wait for.
        self._check_sufficiency()
        return True

    def _on_election_ok(self, msg: ElectionOkValue, src: str) -> None:
        if self.role is not Role.LEADER or msg.ballot != self.state.ballot_num:
            return
        if self.phase is not Phase.ELECTION:
            # R_t is already formed; latecomers are excused from the round.
            if src not in self._participants:
                self._send(src, DiscardRedistribution(msg.ballot))
            return
        self._responses[src] = msg
        self._check_sufficiency()

    def _on_election_reject(self, msg: ElectionReject, src: str) -> None:
        if self.role is not Role.LEADER or self.phase is not Phase.ELECTION:
            return
        if msg.ballot != self.state.ballot_num:
            return
        self._rejections.add(src)
        # Everyone has answered and the pool still cannot satisfy us: give
        # up now instead of waiting out the election timer.
        if len(self._responses) + len(self._rejections) >= self.cluster_size:
            self._abort_election()

    def _check_sufficiency(self) -> None:
        """Change (i): proceed once collected spares cover our demand."""
        own = self.state.init_val
        assert own is not None
        spare = sum(r.init_val.tokens_left for r in self._responses.values())
        if spare < own.tokens_wanted:
            return
        if len(self._responses) < min(2, self.cluster_size):
            # A solo "redistribution" moves nothing; wait for a peer.
            return
        self._form_rt_and_accept()

    def _form_rt_and_accept(self) -> None:
        state = self.state
        states = tuple(
            response.init_val for _, response in sorted(self._responses.items())
        )
        value = AcceptValue(
            value_id=state.ballot_num,
            entity_id=states[0].entity_id,
            states=states,
        )
        state.accept_val = value
        state.accept_num = state.ballot_num
        self.host.persist_protocol(state)
        self.phase = Phase.ACCEPT
        self._participants = value.participants
        self._accept_oks = {self.host.name}
        for peer in self.peers:
            if peer in self._participants:
                self._send(peer, AcceptValueMsg(state.ballot_num, value, decision=False))
            else:
                self._send(peer, DiscardRedistribution(state.ballot_num))
        self._restart_timer(self._config_blocked_retry)
        self._maybe_decide()

    def _on_accept_ok(self, msg: AcceptOk, src: str) -> None:
        if self.role is not Role.LEADER or self.phase is not Phase.ACCEPT:
            return
        if msg.ballot != self.state.ballot_num:
            return
        self._accept_oks.add(src)
        self._maybe_decide()

    def _maybe_decide(self) -> None:
        """Change (iii): decision needs Accept-oks from ALL of R_t."""
        if set(self._participants) - self._accept_oks:
            return
        state = self.state
        state.decision = True
        value = state.accept_val
        assert value is not None
        self.host.persist_protocol(state)
        for peer in self._participants:
            if peer != self.host.name:
                self._send(peer, DecisionMsg(state.ballot_num, value))
        self._locked_to = None
        self._finish_decided(value)

    def _abort_election(self) -> None:
        """Election failed (timeout or full rejection): round dies."""
        ballot = self.state.ballot_num
        self._mark_dead(ballot)
        self._broadcast(DiscardRedistribution(ballot))
        self._locked_to = None
        self._finish_aborted()

    # -- cohort side -------------------------------------------------------

    def _on_election_get_value(self, msg: ElectionGetValue, src: str) -> None:
        state = self.state
        if self.active:
            # Change (ii): one redistribution at a time, higher ballot or not.
            self._send(src, ElectionReject(msg.ballot, msg.entity_id))
            return
        if msg.ballot <= state.ballot_num or msg.ballot in state.dead_ballots:
            self._send(src, ElectionReject(msg.ballot, msg.entity_id))
            return
        state.ballot_num = msg.ballot
        state.init_val = self.host.snapshot_init_val()
        self.host.persist_protocol(state)
        self.role = Role.COHORT
        self.phase = Phase.ELECTION
        self._track_round_entry(Role.COHORT)
        self._locked_to = src
        self._restart_timer(self._config_cohort_timeout)
        self._send(
            src,
            ElectionOkValue(
                ballot=state.ballot_num,
                init_val=state.init_val,
                accept_val=None,
                accept_num=None,
                decision=False,
            ),
        )

    def _on_accept_value(self, msg: AcceptValueMsg, src: str) -> None:
        state = self.state
        if msg.ballot in state.dead_ballots:
            # We aborted this round; the leader must abort it everywhere.
            self._send(src, AbortRedistribution(msg.ballot))
            return
        if self.role is not Role.COHORT or src != self._locked_to:
            return
        if msg.ballot != state.ballot_num:
            return
        state.accept_val = msg.accept_val
        state.accept_num = msg.ballot
        state.decision = msg.decision
        self.host.persist_protocol(state)
        self.phase = Phase.ACCEPT
        self._restart_timer(self._config_cohort_timeout)
        self._send(src, AcceptOk(msg.ballot))

    def _on_decision(self, msg: DecisionMsg, src: str) -> None:
        state = self.state
        value = msg.accept_val
        if (
            self.active
            and state.accept_val is not None
            and state.accept_val.value_id == value.value_id
        ):
            self._locked_to = None
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
        self._mark_dead(msg.ballot)
        self._locked_to = None
        self._finish_aborted()

    def _on_abort(self, msg: AbortRedistribution, src: str) -> None:
        state = self.state
        if self.role is Role.LEADER:
            # A participant refused our value: the round can never decide
            # (we need ALL Accept-oks).  Kill it everywhere.
            if msg.ballot == state.ballot_num and not state.decision:
                self._mark_dead(msg.ballot)
                for peer in self._participants:
                    if peer != self.host.name:
                        self._send(peer, AbortRedistribution(msg.ballot))
                self._locked_to = None
                self._finish_aborted()
            return
        if self.active and msg.ballot == state.ballot_num and not state.decision:
            self._mark_dead(msg.ballot)
            self._locked_to = None
            self._finish_aborted()

    # -- cohort-driven failure recovery (§4.3.2) ---------------------------

    def _on_recovery_query(self, msg: RecoveryQuery, src: str) -> None:
        state = self.state
        if msg.value_id in state.applied:
            reply = RecoveryReply(
                ballot=msg.ballot, value_id=msg.value_id,
                accept_val=None, decision=True, applied=True,
            )
        elif (
            state.accept_val is not None
            and state.accept_val.value_id == msg.value_id
        ):
            reply = RecoveryReply(
                ballot=msg.ballot, value_id=msg.value_id,
                accept_val=state.accept_val, decision=state.decision, applied=False,
            )
        else:
            # We never accepted this value.  Refusing it forever makes the
            # querier's abort decision stable even if the original
            # Accept-Value is still in flight towards us.
            self._mark_dead(msg.ballot)
            reply = RecoveryReply(
                ballot=msg.ballot, value_id=msg.value_id,
                accept_val=None, decision=False, applied=False,
            )
        self._send(src, reply)

    def _start_recovery(self) -> None:
        state = self.state
        value = state.accept_val
        assert value is not None
        self.phase = Phase.RECOVERY
        self._recovery_replies = {}
        for peer in value.participants:
            if peer != self.host.name:
                self._send(peer, RecoveryQuery(state.ballot_num, value.value_id))
        self._restart_timer(self._config_blocked_retry)
        # Degenerate R_t = {dead leader, us}: there is nobody else to ask,
        # and the value is on every non-leader participant — decide it.
        self._check_recovery_complete()

    def _on_recovery_reply(self, msg: RecoveryReply, src: str) -> None:
        state = self.state
        if self.phase is not Phase.RECOVERY or state.accept_val is None:
            return
        if msg.value_id != state.accept_val.value_id:
            return
        value = state.accept_val
        if msg.applied or msg.decision:
            # Someone saw the decision: it is decided, propagate and apply.
            state.decision = True
            self.host.persist_protocol(state)
            for peer in value.participants:
                if peer != self.host.name:
                    self._send(peer, DecisionMsg(state.ballot_num, value))
            self._locked_to = None
            self._finish_decided(value)
            return
        if msg.accept_val is None:
            # A participant never accepted: no decision can ever form.
            self._mark_dead(state.ballot_num)
            for peer in value.participants:
                if peer != self.host.name:
                    self._send(peer, AbortRedistribution(state.ballot_num))
            self._locked_to = None
            self._finish_aborted()
            return
        self._recovery_replies[src] = msg
        self._check_recovery_complete()

    def _check_recovery_complete(self) -> None:
        """All participants except the (dead) leader hold the value: the
        old leader must have stored it everywhere — decide on its behalf."""
        state = self.state
        value = state.accept_val
        if self.phase is not Phase.RECOVERY or value is None:
            return
        leader = value.value_id.site_id
        expected = {
            peer for peer in value.participants
            if peer not in (self.host.name, leader)
        }
        if expected.issubset(self._recovery_replies.keys()):
            state.decision = True
            self.host.persist_protocol(state)
            for peer in value.participants:
                if peer != self.host.name:
                    self._send(peer, DecisionMsg(state.ballot_num, value))
            self._locked_to = None
            self._finish_decided(value)

    # -- timeouts ----------------------------------------------------------

    def _on_timeout(self) -> None:
        state = self.state
        if self.role is Role.LEADER:
            if self.phase is Phase.ELECTION:
                self._abort_election()
            else:
                # Blocked waiting for all Accept-oks: nudge the laggards.
                self._enter_degraded()
                value = state.accept_val
                assert value is not None
                for peer in set(self._participants) - self._accept_oks:
                    if peer != self.host.name:
                        self._send(
                            peer, AcceptValueMsg(state.ballot_num, value, False)
                        )
                self._restart_timer(self._config_blocked_retry)
        elif self.role is Role.COHORT:
            if state.decision and state.accept_val is not None:
                self._locked_to = None
                self._finish_decided(state.accept_val)
            elif state.accept_val is None:
                # §4.3.2 case (i): the leader cannot have decided without
                # our Accept-ok — abort, and tell the leader so it aborts.
                self._mark_dead(state.ballot_num)
                if self._locked_to is not None:
                    self._send(self._locked_to, AbortRedistribution(state.ballot_num))
                self._locked_to = None
                self._finish_aborted()
            else:
                # §4.3.2 case (ii): we hold a value; ask R_t what happened.
                # Until it resolves we are blocked — serve best-effort.
                self._enter_degraded()
                self._start_recovery()

    # -- helpers -------------------------------------------------------------

    def _mark_dead(self, ballot: Ballot) -> None:
        self.state.remember_dead(ballot)
        self.host.persist_protocol(self.state)

    # -- dispatch -------------------------------------------------------------

    def handle(self, payload: Any, src: str) -> bool:
        if isinstance(payload, ElectionGetValue):
            self._on_election_get_value(payload, src)
        elif isinstance(payload, ElectionOkValue):
            self._on_election_ok(payload, src)
        elif isinstance(payload, ElectionReject):
            self._on_election_reject(payload, src)
        elif isinstance(payload, AcceptValueMsg):
            self._on_accept_value(payload, src)
        elif isinstance(payload, AcceptOk):
            self._on_accept_ok(payload, src)
        elif isinstance(payload, DecisionMsg):
            self._on_decision(payload, src)
        elif isinstance(payload, DiscardRedistribution):
            self._on_discard(payload, src)
        elif isinstance(payload, AbortRedistribution):
            self._on_abort(payload, src)
        elif isinstance(payload, RecoveryQuery):
            self._on_recovery_query(payload, src)
        elif isinstance(payload, RecoveryReply):
            self._on_recovery_reply(payload, src)
        else:
            return False
        return True
