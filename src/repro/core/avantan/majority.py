"""Avantan[(n+1)/2] — Algorithm 1 (§4.3.1).

Three rounds / five phases: Election-GetValue, ElectionOk-Value,
Accept-Value, Accept-ok, Decision.  Requires a live majority; executes
one redistribution after another; recovery is Paxos-style: a timed-out
participant tries to become the new leader and drives any value it finds
to completion before fresh values can be constructed.

The round and its majority quorums are
:class:`~repro.core.avantan.base.AvantanProtocol`'s; this class supplies
what a promise reveals, the value choice of lines 15-24 and the timeouts.

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

from repro.core.avantan.base import AvantanProtocol, Phase, Role
from repro.core.messages import DecisionMsg, ElectionOkValue


class AvantanMajority(AvantanProtocol):
    """One site's engine for the majority-quorum variant."""

    def _promise(self) -> ElectionOkValue:
        # The leader's own promise carries its recovery info exactly as a
        # cohort's would, so lines 15-24 treat self uniformly.
        state = self.state
        return ElectionOkValue(
            ballot=state.ballot_num,
            init_val=state.init_val,
            accept_val=state.accept_val,
            accept_num=state.accept_num,
            decision=state.decision,
            applied_ids=state.recent_applied_ids(),
            recently_applied=state.recently_applied(),
        )

    def _on_promises(self) -> None:
        """Algorithm 1 lines 15-24, once a majority has promised."""
        if len(self._responses) < self.majority:
            return
        responses = self._responses.values()
        decided = [
            r.accept_val for r in responses if r.decision and r.accept_val is not None
        ]
        if decided:
            # Lines 16-18: someone saw a decision — just redistribute it.
            self._decide(decided[0], self.peers)
            return
        # Lines 19-20: drive the highest-AcceptNum orphan to completion.
        accepted = None
        best_num = None
        for response in responses:
            if response.accept_val is not None and not response.decision:
                if best_num is None or (
                    response.accept_num is not None and response.accept_num > best_num
                ):
                    accepted = response.accept_val
                    best_num = response.accept_num
        if accepted is not None:
            self._propose(accepted)
        else:
            # Line 22: a fresh value — after resolving stale participants
            # (see module docs: this is the conservation fix).
            self._propose(self._fresh_value(self._resolve_stale_participants()))

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
            self._resend_value(self.peers)
        elif self.role is Role.COHORT:
            # Leader presumed failed: recover by becoming the leader
            # (failure recovery of §4.3.1 — same steps as a fresh election).
            self._start_election()
