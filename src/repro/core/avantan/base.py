"""Shared machinery for the two Avantan variants.

A protocol instance is owned by one site and drives that site's
participation in redistributions — as leader when the site triggers, as
cohort when another site does.  The site exposes a narrow callback
surface (`AvantanHost`) so the protocol code stays independent of
request-handling details.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Protocol

from repro.core.avantan.state import AcceptValue, AvantanState, Ballot
from repro.core.entity import SiteTokenState
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
    """Base class: state, timers, and helpers common to both variants.

    Telemetry rides on two seams so the variant code stays untouched:
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

    def __init__(self, host: AvantanHost, peers: list[str]) -> None:
        self.host = host
        self.peers = list(peers)  # all *other* sites
        self.state = AvantanState.initial(host.name)
        self.role = Role.IDLE
        self.phase = Phase.NONE
        self.stats = RedistributionStats()
        self._timer = host.protocol_timer(self._on_timeout)
        #: Timer-jitter draws (hosts return one stream per site, so this
        #: is the stream every call to ``protocol_rng`` would give).
        self._random = host.protocol_rng().random
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

    @abc.abstractmethod
    def trigger(self) -> bool:
        """Start a redistribution as leader.  False if one is in flight."""

    @abc.abstractmethod
    def handle(self, payload: Any, src: str) -> bool:
        """Process a protocol message; True when the payload was ours."""

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
            self._restart_timer(self._cohort_timeout_value())
        else:
            self.role = Role.IDLE
            self.phase = Phase.NONE
            self.state.reset_round()

    # -- shared internals ----------------------------------------------------

    def _send(self, dst: str, payload: Any) -> None:
        self.stats.messages_sent += 1
        self.host.protocol_send(dst, payload)

    def _broadcast(self, payload: Any, targets: list[str] | None = None) -> None:
        for dst in targets if targets is not None else self.peers:
            self._send(dst, payload)

    def _restart_timer(self, delay: float) -> None:
        # +-20% jitter prevents synchronized duelling leaders.
        jitter = 0.8 + 0.4 * self._random()
        self._timer.restart(delay * jitter)

    def _cohort_timeout_value(self) -> float:
        return self._config_cohort_timeout

    # These are injected by the site when constructing the protocol, so the
    # protocol module does not import the full SamyaConfig.
    _config_election_timeout: float = 1.0
    _config_cohort_timeout: float = 2.5
    _config_blocked_retry: float = 2.5

    def configure_timeouts(
        self, election: float, cohort: float, blocked_retry: float
    ) -> None:
        self._config_election_timeout = election
        self._config_cohort_timeout = cohort
        self._config_blocked_retry = blocked_retry

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

    def _decided_value_among(self, responses: dict[str, Any]) -> AcceptValue | None:
        """Algorithm 1 lines 16-18: adopt any already-decided value."""
        for response in responses.values():
            if response.decision and response.accept_val is not None:
                return response.accept_val
        return None

    def _highest_accepted_among(self, responses: dict[str, Any]) -> AcceptValue | None:
        """Algorithm 1 lines 19-20: the AcceptVal with the highest AcceptNum."""
        best: AcceptValue | None = None
        best_num: Ballot | None = None
        for response in responses.values():
            if response.accept_val is not None and not response.decision:
                if best_num is None or (
                    response.accept_num is not None and response.accept_num > best_num
                ):
                    best = response.accept_val
                    best_num = response.accept_num
        return best

    @abc.abstractmethod
    def _on_timeout(self) -> None:
        """Variant-specific timeout handling (abort / re-elect / recover)."""
