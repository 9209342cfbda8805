"""The Avantan round, written once: Algorithm 1's skeleton (§4.3.1).

A protocol instance is owned by one site and drives that site's
participation in redistributions — as leader when the site triggers, as
cohort when another site does.  The site exposes a narrow callback
surface (`AvantanHost`) so the protocol code stays independent of
request-handling details.

:class:`AvantanProtocol` runs the round — election, promises, proposal,
Accept-oks, decision, abort, dispatch — and a variant overrides only the
decisions on which the paper's two differ: what a promise carries,
whether a cohort may promise, when the leader builds a value and from
whom, when it decides and whom it tells, and what a timeout does.  Where
Algorithm 1 fixes a decision (its quorums and cohort guards), the base
holds it and Avantan[*] overrides it.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Collection, Protocol

from repro.core.avantan.state import AcceptValue, AvantanState, Ballot
from repro.core.entity import SiteTokenState
from repro.core.messages import (
    AbortRedistribution,
    AcceptOk,
    AcceptValueMsg,
    DecisionMsg,
    DiscardRedistribution,
    ElectionGetValue,
    ElectionOkValue,
)
from repro.sim.process import Timer


class AvantanHost(Protocol):
    """What a protocol needs from its site."""

    name: str
    now: float

    def snapshot_init_val(self) -> SiteTokenState:
        """Current entity state with TokensWanted freshly recomputed
        (prediction + queued demand), per Algorithm 1 lines 9-12."""
        ...  # pragma: no cover

    def apply_redistribution(self, value: AcceptValue) -> None:
        """Install the granted allocation (idempotent per value_id)."""
        ...  # pragma: no cover

    def on_protocol_idle(self) -> None:
        """The round ended (decided or aborted); drain queued requests."""
        ...  # pragma: no cover

    def on_protocol_degraded(self) -> None:
        """The round is blocked; answer queued requests best-effort."""
        ...  # pragma: no cover

    def protocol_send(self, dst: str, payload: Any) -> None:
        ...  # pragma: no cover

    def protocol_timer(self, callback) -> Timer:
        ...  # pragma: no cover

    def persist_protocol(self, state: AvantanState) -> None:
        ...  # pragma: no cover

    def protocol_rng(self):
        ...  # pragma: no cover


class Role(enum.Enum):
    IDLE = "idle"
    LEADER = "leader"
    COHORT = "cohort"


class Phase(enum.Enum):
    NONE = "none"
    ELECTION = "election"
    ACCEPT = "accept"
    RECOVERY = "recovery"


class RedistributionStats:
    """Counters reported by the benchmarks (e.g. 208 vs 792 rounds, §5.3).

    ``as_dict`` is the per-site counter row.  The round totals — the
    rounds this site entered and saw end, and how long it stayed frozen
    in them — stay out of it: ``SamyaCluster.round_summary`` reads them.
    """

    def __init__(self) -> None:
        self.triggered = 0
        self.completed = 0
        self.aborted = 0
        self.leader_rounds = 0
        self.messages_sent = 0
        self.rounds_decided = 0
        self.rounds_aborted = 0
        self.degraded_rounds = 0
        self.frozen_time = 0.0
        self.longest_round = 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "triggered": self.triggered,
            "completed": self.completed,
            "aborted": self.aborted,
            "leader_rounds": self.leader_rounds,
            "messages_sent": self.messages_sent,
        }


class AvantanProtocol(abc.ABC):
    """The round both variants run; a variant overrides its decisions.

    Telemetry rides on two seams so the round code stays untouched:
    the ``phase`` attribute is a property whose setter turns every
    transition into a ``avantan.phase.*`` span, and the round
    entry/finish helpers open and close one ``avantan.round`` span
    (and count the round into ``stats``).
    The bus is read through ``getattr(host, "obs", None)`` — stub hosts
    in tests have no such attribute and pay nothing.
    """

    # Class defaults so the ``phase`` property setter (which fires inside
    # ``__init__``) can read the previous value and the open-span slots.
    _phase: Phase = Phase.NONE
    _phase_span: int | None = None
    _round_span: int | None = None

    #: Payload type -> handler name; a variant adds the messages it adds.
    HANDLERS: dict[type, str] = {
        ElectionGetValue: "_on_election_get_value",
        ElectionOkValue: "_on_election_ok",
        AcceptValueMsg: "_on_accept_value",
        AcceptOk: "_on_accept_ok",
        DecisionMsg: "_on_decision",
    }

    def __init__(
        self,
        host: AvantanHost,
        peers: list[str],
        election: float = 1.0,
        cohort: float = 2.5,
        blocked_retry: float = 2.5,
    ) -> None:
        self.host = host
        self.peers = list(peers)  # all *other* sites
        self.state = AvantanState.initial(host.name)
        self.role = Role.IDLE
        self.phase = Phase.NONE
        self.stats = RedistributionStats()
        #: How long a leader waits for promises, a cohort for its leader,
        #: and a blocked round before it retries.
        self._election_timeout = election
        self._cohort_timeout = cohort
        self._blocked_retry = blocked_retry
        self._timer = host.protocol_timer(self._on_timeout)
        #: Timer-jitter draws (hosts return one stream per site, so this
        #: is the stream every call to ``protocol_rng`` would give).
        self._random = host.protocol_rng().random
        #: The leader's pool: promises of this round, its own included.
        self._responses: dict[str, ElectionOkValue] = {}
        #: Sites known to hold the proposed value: Accept-oks at the
        #: leader, recovery replies at a recovering Avantan[*] cohort.
        self._accept_oks: set[str] = set()
        #: The leader of the round this site is in (itself when leading).
        self._locked_to: str | None = None
        #: When the open round began; ``None`` while no round is open.
        #: (``_round_span`` cannot tell: it is ``None`` on untraced runs.)
        self._round_started: float | None = None
        #: True while the round is *blocked* (not enough reachable sites
        #: to terminate it).  A degraded site stops queueing clients: it
        #: serves from tokens beyond its pooled contribution (fresh
        #: releases) and fast-rejects the rest, while retrying the round
        #: in the background — this is what keeps survivors alive in the
        #: §5.4 failure experiments.
        self.degraded = False

    # -- public surface ----------------------------------------------------

    @property
    def phase(self) -> Phase:
        return self._phase

    @phase.setter
    def phase(self, value: Phase) -> None:
        if value is self._phase:
            return
        self._phase = value
        obs = getattr(self.host, "obs", None)
        if obs is None:
            return
        if self._phase_span is not None:
            obs.span_end(self._phase_span)
            self._phase_span = None
        if value is not Phase.NONE:
            self._phase_span = obs.span_begin(
                f"avantan.phase.{value.value}",
                node=self.host.name,
                trace_id=self._round_trace_id(),
                role=self.role.value,
            )

    @property
    def active(self) -> bool:
        """True while the site participates in a round (requests queue)."""
        return self.role is not Role.IDLE

    @property
    def cluster_size(self) -> int:
        return len(self.peers) + 1

    @property
    def majority(self) -> int:
        return self.cluster_size // 2 + 1

    def trigger(self) -> bool:
        """Start a redistribution as leader.  False if one is in flight."""
        if self.active:
            return False
        self.stats.triggered += 1
        self._start_election()
        return True

    def handle(self, payload: Any, src: str) -> bool:
        """Process a protocol message; True when the payload was ours."""
        name = self.HANDLERS.get(type(payload))
        if name is None:
            return False
        getattr(self, name)(payload, src)
        return True

    def on_crash(self) -> None:
        """The owning site crashed: stop timers; state survives in store."""
        self._timer.cancel()
        self._close_round("crashed")
        if self._phase_span is not None:
            obs = getattr(self.host, "obs", None)
            if obs is not None:
                obs.span_end(self._phase_span, outcome="crashed")
            self._phase_span = None
        self._phase = Phase.NONE

    def on_recover(self, state: AvantanState) -> None:
        """Restore from stable storage after a crash."""
        self.state = state
        if state.accept_val is not None and not state.decision:
            # We were mid-round with a value at stake: rejoin as cohort and
            # let the timeout-driven recovery find out what happened to it.
            self.role = Role.COHORT
            self.phase = Phase.ACCEPT
            self._track_round_entry(Role.COHORT)
            self._restart_timer(self._cohort_timeout)
        else:
            self.role = Role.IDLE
            self.phase = Phase.NONE
            self.state.reset_round()

    # -- the variant's decisions -----------------------------------------------

    @abc.abstractmethod
    def _promise(self) -> ElectionOkValue:
        """What this site's promise for the current ballot carries."""

    @abc.abstractmethod
    def _on_promises(self) -> None:
        """A promise joined the leader's pool: build the value if it is time."""

    def _on_late_promise(self, src: str) -> None:
        """``src`` promised after the value was built: Algorithm 1 ignores it."""

    def _quorum(self, value: AcceptValue) -> bool:
        """Whether the Accept-oks collected so far decide ``value``."""
        return len(self._accept_oks) >= self.majority

    def _cohorts(self, value: AcceptValue) -> list[str]:
        """The other sites ``value`` is proposed to and decided at."""
        return self.peers

    @abc.abstractmethod
    def _on_timeout(self) -> None:
        """The round timer fired (abort / re-elect / recover)."""

    # -- leader side -----------------------------------------------------------

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
        self._locked_to = self.host.name
        # The leader's own promise joins the pool like any cohort's.
        self._responses = {self.host.name: self._promise()}
        self.host.persist_protocol(state)
        self._broadcast(ElectionGetValue(state.ballot_num, state.init_val.entity_id))
        self._restart_timer(self._election_timeout)

    def _on_election_ok(self, msg: ElectionOkValue, src: str) -> None:
        if self.role is not Role.LEADER or msg.ballot != self.state.ballot_num:
            return
        if self.phase is Phase.ELECTION:
            self._responses[src] = msg
            self._on_promises()
        else:
            self._on_late_promise(src)

    def _fresh_value(self, excluded: Collection[str] = ()) -> AcceptValue:
        """Algorithm 1 line 22: the pooled InitVals, concatenated in site order."""
        states = tuple(
            response.init_val
            for name, response in sorted(self._responses.items())
            if name not in excluded
        )
        return AcceptValue(
            value_id=self.state.ballot_num, entity_id=states[0].entity_id, states=states
        )

    def _propose(self, value: AcceptValue) -> None:
        """Algorithm 1 lines 24-25; a site left out is told to discard the round."""
        state = self.state
        state.accept_val = value
        state.accept_num = state.ballot_num
        self.host.persist_protocol(state)
        self.phase = Phase.ACCEPT
        self._accept_oks = {self.host.name}
        cohorts = self._cohorts(value)
        for peer in self.peers:
            if peer in cohorts:
                self._send(peer, AcceptValueMsg(state.ballot_num, value, False))
            else:
                self._send(peer, DiscardRedistribution(state.ballot_num))
        self._restart_timer(self._blocked_retry)
        self._maybe_decide()

    def _resend_value(self, targets: Collection[str]) -> None:
        """The round is blocked on Accept-oks: retry the phase at ``targets``."""
        self._enter_degraded()
        value = self.state.accept_val
        assert value is not None
        self._broadcast(AcceptValueMsg(self.state.ballot_num, value, False), targets)
        self._restart_timer(self._blocked_retry)

    def _on_accept_ok(self, msg: AcceptOk, src: str) -> None:
        if self.role is not Role.LEADER or self.phase is not Phase.ACCEPT:
            return
        if msg.ballot != self.state.ballot_num:
            return
        self._accept_oks.add(src)
        self._maybe_decide()

    def _maybe_decide(self) -> None:
        """Algorithm 1 lines 33-35."""
        value = self.state.accept_val
        assert value is not None
        if self._quorum(value):
            self._decide(value, self._cohorts(value))

    def _decide(self, value: AcceptValue, targets: Collection[str]) -> None:
        """``value`` is decided: persist that, tell ``targets``, apply it."""
        state = self.state
        state.accept_val = value
        state.accept_num = state.ballot_num
        state.decision = True
        self.host.persist_protocol(state)
        self._broadcast(DecisionMsg(state.ballot_num, value), targets)
        self._finish_decided(value)

    def _abort(self, targets: Collection[str] = (), notice=AbortRedistribution) -> None:
        """End the round for good: its ballot is dead here (a late Accept-Value
        is refused), and ``targets`` get ``notice`` of it."""
        ballot = self.state.ballot_num
        self._mark_dead(ballot)
        self._broadcast(notice(ballot), targets)
        self._finish_aborted()

    # -- cohort side -----------------------------------------------------------

    def _on_election_get_value(self, msg: ElectionGetValue, src: str) -> None:
        """Algorithm 1 lines 6-13."""
        state = self.state
        if msg.ballot <= state.ballot_num:
            return  # stale leader; stay silent, its timeout handles it
        state.ballot_num = msg.ballot
        # Lines 9-12: refresh TokensWanted from prediction before promising.
        state.init_val = self.host.snapshot_init_val()
        self._locked_to = src
        self._serve(src, Phase.ELECTION, self._promise())

    def _on_accept_value(self, msg: AcceptValueMsg, src: str) -> None:
        """Algorithm 1 lines 26-31."""
        if msg.ballot < self.state.ballot_num:
            return  # stale; silence makes the old leader retry or die
        self._accept(msg, src)
        if msg.decision:
            self._finish_decided(msg.accept_val)

    def _accept(self, msg: AcceptValueMsg, src: str) -> None:
        state = self.state
        state.ballot_num = msg.ballot
        state.accept_val = msg.accept_val
        state.accept_num = msg.ballot
        state.decision = msg.decision
        # Any AcceptValue from another site means that site owns the round
        # (ballots are unique per leader), so we serve it as a cohort.
        self._serve(src, Phase.ACCEPT, AcceptOk(msg.ballot))

    def _serve(self, leader: str, phase: Phase, reply: Any) -> None:
        """Persist, then answer ``leader`` as its cohort in ``phase``."""
        self.host.persist_protocol(self.state)
        # Participation freezes client serving until the round ends; a
        # leader of a lower ballot is hereby superseded and demoted.
        self.role = Role.COHORT
        self.phase = phase
        self._track_round_entry(Role.COHORT)
        self._restart_timer(self._cohort_timeout)
        self._send(leader, reply)

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

    # -- shared internals ----------------------------------------------------

    def _send(self, dst: str, payload: Any) -> None:
        self.stats.messages_sent += 1
        self.host.protocol_send(dst, payload)

    def _broadcast(self, payload: Any, targets: Collection[str] | None = None) -> None:
        for dst in targets if targets is not None else self.peers:
            self._send(dst, payload)

    def _restart_timer(self, delay: float) -> None:
        # +-20% jitter prevents synchronized duelling leaders.
        jitter = 0.8 + 0.4 * self._random()
        self._timer.restart(delay * jitter)

    def _mark_dead(self, ballot: Ballot) -> None:
        self.state.remember_dead(ballot)
        self.host.persist_protocol(self.state)

    def _finish_decided(self, value: AcceptValue) -> None:
        """Terminate the round after a decision: apply, reset, resume."""
        self.stats.completed += 1
        self._close_round("decided")
        self.host.apply_redistribution(value)
        self._finish_common()

    def _finish_aborted(self) -> None:
        self.stats.aborted += 1
        self._close_round("aborted")
        self._finish_common()

    def _finish_common(self) -> None:
        self._timer.cancel()
        self.role = Role.IDLE
        self.phase = Phase.NONE
        self.degraded = False
        self._locked_to = None
        self.state.reset_round()
        self.host.persist_protocol(self.state)
        self.host.on_protocol_idle()

    def _track_round_entry(self, role: Role) -> None:
        """Record that this site just joined a redistribution round.

        A cohort promoted to leader mid-round stays in the round it
        entered: neither its start time nor its span is replaced.
        """
        if self._round_started is None:
            self._round_started = self.host.now
        obs = getattr(self.host, "obs", None)
        if obs is not None and self._round_span is None:
            self._round_span = obs.span_begin(
                "avantan.round",
                node=self.host.name,
                trace_id=self._round_trace_id(),
                role=role.value,
            )

    def _round_trace_id(self) -> str:
        """The round's causal id: the ballot the messages carry.

        Matches :func:`repro.obs.bus.trace_id_of` for Avantan payloads,
        so phase spans and the wire traffic of one round correlate.
        """
        ballot = self.state.ballot_num
        return f"rnd-{ballot.num}.{ballot.site_id}"

    def _close_round(self, outcome: str) -> None:
        """End the open round's span and fold the round into ``stats``.

        A round the site crashed out of was neither decided nor aborted
        here: it closes uncounted, so the next round is timed from its
        own entry.
        """
        if self._round_span is not None:
            obs = getattr(self.host, "obs", None)
            if obs is not None:
                obs.span_end(self._round_span, outcome=outcome)
            self._round_span = None
        started, self._round_started = self._round_started, None
        if started is None or outcome == "crashed":
            return
        stats = self.stats
        if outcome == "decided":
            stats.rounds_decided += 1
        else:
            stats.rounds_aborted += 1
        if self.degraded:
            stats.degraded_rounds += 1
        duration = self.host.now - started
        stats.frozen_time += duration
        if duration > stats.longest_round:
            stats.longest_round = duration

    def _enter_degraded(self) -> None:
        """The round is blocked; let the site serve what it safely can."""
        if not self.degraded:
            self.degraded = True
            self.host.on_protocol_degraded()
