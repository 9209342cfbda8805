"""Avantan[(n+1)/2] — Algorithm 1 (§4.3.1).

Three rounds / five phases: Election-GetValue, ElectionOk-Value,
Accept-Value, Accept-ok, Decision.  Requires a live majority; executes
one redistribution after another; recovery is Paxos-style: a timed-out
participant tries to become the new leader and drives any value it finds
to completion before fresh values can be constructed.

Conservation fix (beyond the paper's pseudocode)
------------------------------------------------
Algorithm 1 pools the InitVals of every phase-1 responder but decides on
any *majority* of Accept-oks.  A pooled participant can therefore miss
the entire decision (slow, partitioned, or its Accept-Value was lost),
stay frozen, time out, and contribute its now-stale balance to the next
round — while the decided value has already granted its pooled tokens to
others.  Replaying a stale balance mints tokens; a stale balance lower
than the missed grant destroys them.  Our conservation checker caught
exactly this under load.

The fix: promises reveal a bounded log of recently applied values.  A
new leader about to construct a *fresh* value first (a) applies any
revealed value it itself missed, and (b) excludes the InitVal of any
responder R that a revealed value V still owes tokens to
(R in V.participants and V unacknowledged in R's applied ids), sending R
the decision for V instead.  Avantan[*] needs none of this — it decides
only with Accept-oks from ALL participants, so a pooled-but-unresolved
participant can never coexist with a decision.
"""

from __future__ import annotations

from typing import Any

from repro.core.avantan.base import AvantanProtocol, Phase, Role
from repro.core.avantan.state import AcceptValue
from repro.core.messages import (
    AcceptOk,
    AcceptValueMsg,
    DecisionMsg,
    ElectionGetValue,
    ElectionOkValue,
)


class AvantanMajority(AvantanProtocol):
    """One site's engine for the majority-quorum variant."""

    def __init__(self, host, peers) -> None:
        super().__init__(host, peers)
        self._responses: dict[str, ElectionOkValue] = {}
        self._accept_oks: set[str] = set()

    # -- leader side -------------------------------------------------------

    def trigger(self) -> bool:
        if self.active:
            return False
        self.stats.triggered += 1
        self._start_election()
        return True

    def _start_election(self) -> None:
        """Algorithm 1 lines 1-4, also reused by timeout-driven recovery."""
        self.stats.leader_rounds += 1
        state = self.state
        state.ballot_num = state.ballot_num.next_for(self.host.name)
        held = (
            state.accept_val.state_of(self.host.name)
            if state.accept_val is not None
            else None
        )
        if held is not None:
            # We hold an accepted-but-undecided value: this election exists
            # to complete it, so our InitVal stays pegged to the share we
            # already pooled there.  Re-snapshotting the live balance would
            # pool tokens earned since (degraded-mode releases), inflating
            # the reserve until the site can serve nothing at all.
            state.init_val = held
        else:
            state.init_val = self.host.snapshot_init_val()
        self.role = Role.LEADER
        self.phase = Phase.ELECTION
        self._track_round_entry(Role.LEADER)
        # The leader's own "response" carries its recovery info exactly as a
        # cohort's would, so lines 15-24 treat self uniformly.
        self._responses = {
            self.host.name: ElectionOkValue(
                ballot=state.ballot_num,
                init_val=state.init_val,
                accept_val=state.accept_val,
                accept_num=state.accept_num,
                decision=state.decision,
                applied_ids=state.recent_applied_ids(),
                recently_applied=state.recently_applied(),
            )
        }
        self._accept_oks = set()
        self.host.persist_protocol(state)
        self._broadcast(ElectionGetValue(state.ballot_num, state.init_val.entity_id))
        self._restart_timer(self._config_election_timeout)

    def _on_election_ok(self, msg: ElectionOkValue, src: str) -> None:
        if self.role is not Role.LEADER or self.phase is not Phase.ELECTION:
            return
        if msg.ballot != self.state.ballot_num:
            return
        self._responses[src] = msg
        if len(self._responses) >= self.majority:
            self._construct_and_accept()

    def _construct_and_accept(self) -> None:
        """Algorithm 1 lines 15-24."""
        state = self.state
        decided = self._decided_value_among(self._responses)
        if decided is not None:
            # Lines 16-18: someone saw a decision — just redistribute it.
            state.accept_val = decided
            state.accept_num = state.ballot_num
            state.decision = True
            self.host.persist_protocol(state)
            self._broadcast(DecisionMsg(state.ballot_num, decided))
            self._finish_decided(decided)
            return
        accepted = self._highest_accepted_among(self._responses)
        if accepted is not None:
            # Lines 19-20: drive the orphaned value to completion.
            value = accepted
        else:
            # Line 22: fresh value = concatenation of the collected
            # InitVals — after resolving stale participants (see module
            # docs: this is the conservation fix).
            stale = self._resolve_stale_participants()
            states = tuple(
                response.init_val
                for name, response in sorted(self._responses.items())
                if name not in stale
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
        self._accept_oks = {self.host.name}
        self._broadcast(AcceptValueMsg(state.ballot_num, value, decision=False))
        self._restart_timer(self._config_blocked_retry)
        self._maybe_decide()

    def _resolve_stale_participants(self) -> set[str]:
        """The conservation fix (module docs): returns responders whose
        InitVals must NOT be pooled because a revealed decided value still
        owes them tokens; repairs the leader's own state if it is the
        stale one."""
        state = self.state
        leader = self.host.name
        revealed: dict = {}
        for response in self._responses.values():
            for value in response.recently_applied:
                revealed[value.value_id] = value
        # (a) Apply anything we ourselves missed, then refresh our InitVal.
        missed_self = [
            value_id
            for value_id, value in revealed.items()
            if leader in value.participants and value_id not in state.applied
        ]
        for value_id in sorted(missed_self):
            self.host.apply_redistribution(revealed[value_id])
        if missed_self:
            state.init_val = self.host.snapshot_init_val()
            self._responses[leader].init_val = state.init_val
        # (b) Exclude responders a revealed value has not reached yet, and
        # deliver that value to them (idempotent if this is a false alarm).
        stale: set[str] = set()
        for name, response in self._responses.items():
            if name == leader:
                continue
            applied = set(response.applied_ids)
            for value_id, value in revealed.items():
                if name in value.participants and value_id not in applied:
                    stale.add(name)
                    self._send(name, DecisionMsg(value_id, value))
                    break
        return stale

    def _on_accept_ok(self, msg: AcceptOk, src: str) -> None:
        if self.role is not Role.LEADER or self.phase is not Phase.ACCEPT:
            return
        if msg.ballot != self.state.ballot_num:
            return
        self._accept_oks.add(src)
        self._maybe_decide()

    def _maybe_decide(self) -> None:
        """Algorithm 1 lines 33-35."""
        if len(self._accept_oks) < self.majority:
            return
        state = self.state
        state.decision = True
        self.host.persist_protocol(state)
        value = state.accept_val
        assert value is not None
        self._broadcast(DecisionMsg(state.ballot_num, value))
        self._finish_decided(value)

    # -- cohort side ---------------------------------------------------------

    def _on_election_get_value(self, msg: ElectionGetValue, src: str) -> None:
        """Algorithm 1 lines 6-13."""
        state = self.state
        if msg.ballot <= state.ballot_num:
            return  # stale leader; stay silent, its timeout handles it
        state.ballot_num = msg.ballot
        # Lines 9-12: refresh TokensWanted from prediction before promising.
        state.init_val = self.host.snapshot_init_val()
        self.host.persist_protocol(state)
        # Participation freezes client serving until the round ends; a
        # leader of a lower ballot is hereby superseded and demoted.
        self.role = Role.COHORT
        self.phase = Phase.ELECTION
        self._track_round_entry(Role.COHORT)
        self._restart_timer(self._config_cohort_timeout)
        self._send(
            src,
            ElectionOkValue(
                ballot=state.ballot_num,
                init_val=state.init_val,
                accept_val=state.accept_val,
                accept_num=state.accept_num,
                decision=state.decision,
                applied_ids=state.recent_applied_ids(),
                recently_applied=state.recently_applied(),
            ),
        )

    def _on_accept_value(self, msg: AcceptValueMsg, src: str) -> None:
        """Algorithm 1 lines 26-31."""
        state = self.state
        if msg.ballot < state.ballot_num:
            return  # stale; silence makes the old leader retry or die
        state.ballot_num = msg.ballot
        state.accept_val = msg.accept_val
        state.accept_num = msg.ballot
        state.decision = msg.decision
        self.host.persist_protocol(state)
        # Any AcceptValue from another site means that site owns the round
        # (ballots are unique per leader), so we serve it as a cohort.
        self.role = Role.COHORT
        self.phase = Phase.ACCEPT
        self._track_round_entry(Role.COHORT)
        self._restart_timer(self._config_cohort_timeout)
        self._send(src, AcceptOk(msg.ballot))
        if msg.decision:
            self._finish_decided(msg.accept_val)

    def _on_decision(self, msg: DecisionMsg, src: str) -> None:
        state = self.state
        if msg.ballot >= state.ballot_num:
            state.ballot_num = msg.ballot
            self._finish_decided(msg.accept_val)
        else:
            # A decision from an older round than the one we are now in:
            # apply the tokens (idempotent via value_id) but keep the newer
            # round running — its leader will terminate it.
            self.host.apply_redistribution(msg.accept_val)

    # -- timeouts ---------------------------------------------------------------

    def _on_timeout(self) -> None:
        if self.role is Role.LEADER and self.phase is Phase.ELECTION:
            if self.state.accept_val is None:
                # §4.3.1 fault tolerance: no value constructed yet, so the
                # leader may abort and keep serving locally.
                self._finish_aborted()
            else:
                # We hold an accepted value: blocked until a majority is
                # reachable again; keep trying to finish the round while
                # the site serves what it safely can.
                self._enter_degraded()
                self._start_election()
        elif self.role is Role.LEADER and self.phase is Phase.ACCEPT:
            # Blocked waiting for majority Accept-oks: retry the phase.
            self._enter_degraded()
            value = self.state.accept_val
            assert value is not None
            self._broadcast(AcceptValueMsg(self.state.ballot_num, value, decision=False))
            self._restart_timer(self._config_blocked_retry)
        elif self.role is Role.COHORT:
            # Leader presumed failed: recover by becoming the leader
            # (failure recovery of §4.3.1 — same steps as a fresh election).
            self._start_election()

    # -- dispatch -------------------------------------------------------------

    def handle(self, payload: Any, src: str) -> bool:
        if isinstance(payload, ElectionGetValue):
            self._on_election_get_value(payload, src)
        elif isinstance(payload, ElectionOkValue):
            self._on_election_ok(payload, src)
        elif isinstance(payload, AcceptValueMsg):
            self._on_accept_value(payload, src)
        elif isinstance(payload, AcceptOk):
            self._on_accept_ok(payload, src)
        elif isinstance(payload, DecisionMsg):
            self._on_decision(payload, src)
        else:
            return False
        return True
