"""Avantan protocol state: ballots and the Table 1c variables."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.entity import SiteTokenState

#: Applied and dead ballots a site remembers (memory bound): older ones
#: drop first from ``AvantanState.applied`` and ``dead_ballots``.
BALLOT_MEMORY = 256

#: Recently applied values a site keeps in ``AvantanState.applied_log``.
APPLIED_LOG_RETENTION = 32

#: Recently applied values a promise (``ElectionOkValue``) reveals to a
#: new leader, newest last.
REVEAL_WINDOW = 16


@dataclass(frozen=True, order=True, slots=True)
class Ballot:
    """A totally ordered ballot ``<num, site_id>`` (§4.3).

    Ordering is lexicographic on ``(num, site_id)``, exactly the Paxos
    convention; ``site_id`` breaks ties between concurrent leaders.
    """

    num: int
    site_id: str

    def next_for(self, site_id: str) -> "Ballot":
        """The smallest ballot owned by ``site_id`` greater than self."""
        return Ballot(self.num + 1, site_id)

    @staticmethod
    def zero(site_id: str) -> "Ballot":
        return Ballot(0, site_id)

    def __reduce__(self):
        # The WAL pickles every persisted Avantan state (up to
        # BALLOT_MEMORY applied ballots); a slotted frozen dataclass
        # would otherwise pickle through Python-level __getstate__ /
        # __setstate__.
        return Ballot, (self.num, self.site_id)


@dataclass(frozen=True)
class AcceptValue:
    """The value Avantan agrees on: a list of site token states (Eq. 6).

    ``value_id`` is the ballot under which the value was first
    constructed.  It never changes when the value is re-proposed at a
    higher ballot during recovery, which gives sites an idempotence key:
    a redistribution is applied at most once per ``value_id`` even when
    Decision messages are duplicated or re-derived by a new leader.
    """

    value_id: Ballot
    entity_id: str
    states: tuple[SiteTokenState, ...]

    @cached_property
    def participants(self) -> tuple[str, ...]:
        """Site ids in R_t, in value order (computed once per value)."""
        return tuple(state.site_id for state in self.states)

    def state_of(self, site_id: str) -> SiteTokenState | None:
        for state in self.states:
            if state.site_id == site_id:
                return state
        return None

    def total_tokens(self) -> int:
        """Total spare tokens pooled by this redistribution (S_t)."""
        return sum(state.tokens_left for state in self.states)


@dataclass
class AvantanState:
    """The per-execution variables of Table 1c, owned by one site."""

    ballot_num: Ballot
    init_val: SiteTokenState | None = None
    accept_val: AcceptValue | None = None
    accept_num: Ballot | None = None
    decision: bool = False
    #: value_ids of redistributions this site already applied (idempotence).
    applied: set[Ballot] = field(default_factory=set)
    #: Recently applied values, newest last (bounded).  Revealed in
    #: promises so a new leader can detect participants whose pooled
    #: contribution was decided without them noticing — the conservation
    #: hole in Algorithm 1 as printed (see majority.py's module docs).
    applied_log: list[AcceptValue] = field(default_factory=list)
    #: Ballots of rounds this site aborted and must never rejoin
    #: (Avantan[*] only: prevents a late Accept-Value from re-pooling
    #: tokens the site already resumed spending).
    dead_ballots: set[Ballot] = field(default_factory=set)

    def remember_applied_value(self, value: AcceptValue) -> None:
        self.applied.add(value.value_id)
        if len(self.applied) > BALLOT_MEMORY:
            self.applied.discard(min(self.applied))
        self.applied_log.append(value)
        if len(self.applied_log) > APPLIED_LOG_RETENTION:
            del self.applied_log[0]

    def remember_dead(self, ballot: Ballot) -> None:
        self.dead_ballots.add(ballot)
        if len(self.dead_ballots) > BALLOT_MEMORY:
            self.dead_ballots.discard(min(self.dead_ballots))

    def recently_applied(self) -> tuple[AcceptValue, ...]:
        """The applied values a promise reveals (``REVEAL_WINDOW``)."""
        return tuple(self.applied_log[-REVEAL_WINDOW:])

    def recent_applied_ids(self) -> tuple[Ballot, ...]:
        return tuple(value.value_id for value in self.recently_applied())

    @staticmethod
    def initial(site_id: str) -> "AvantanState":
        return AvantanState(ballot_num=Ballot.zero(site_id))

    def reset_round(self) -> None:
        """Reset everything except BallotNum after a protocol terminates,
        as §4.3.1 prescribes."""
        self.init_val = None
        self.accept_val = None
        self.accept_num = None
        self.decision = False
