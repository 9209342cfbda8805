"""Tests for ballots and protocol state."""

from repro.core.avantan import state as avantan_state
from repro.core.avantan.state import AcceptValue, AvantanState, Ballot
from repro.core.entity import SiteTokenState


class TestBallot:
    def test_ordering_by_number_first(self):
        assert Ballot(1, "z") < Ballot(2, "a")

    def test_ties_break_on_site_id(self):
        assert Ballot(1, "a") < Ballot(1, "b")

    def test_next_for_increments(self):
        ballot = Ballot(4, "a").next_for("b")
        assert ballot == Ballot(5, "b")
        assert ballot > Ballot(4, "z") or ballot > Ballot(4, "a")

    def test_zero(self):
        assert Ballot.zero("s").num == 0

    def test_hashable_and_unique_per_leader(self):
        assert Ballot(1, "a") != Ballot(1, "b")
        assert len({Ballot(1, "a"), Ballot(1, "a"), Ballot(1, "b")}) == 2


def value(value_id, *site_tokens):
    return AcceptValue(
        value_id=value_id,
        entity_id="VM",
        states=tuple(
            SiteTokenState(name, "VM", left, wanted)
            for name, left, wanted in site_tokens
        ),
    )


class TestAcceptValue:
    def test_participants_order(self):
        v = value(Ballot(1, "a"), ("a", 10, 0), ("b", 5, 3))
        assert v.participants == ("a", "b")

    def test_state_of(self):
        v = value(Ballot(1, "a"), ("a", 10, 0), ("b", 5, 3))
        assert v.state_of("b").tokens_left == 5
        assert v.state_of("missing") is None

    def test_total_tokens(self):
        v = value(Ballot(1, "a"), ("a", 10, 0), ("b", 5, 3))
        assert v.total_tokens() == 15


class TestAvantanState:
    def test_initial(self):
        state = AvantanState.initial("s")
        assert state.ballot_num == Ballot(0, "s")
        assert state.accept_val is None
        assert not state.decision

    def test_reset_round_keeps_ballot_and_applied(self):
        state = AvantanState.initial("s")
        state.ballot_num = Ballot(5, "s")
        state.accept_val = value(Ballot(5, "s"), ("s", 1, 0))
        state.decision = True
        state.applied.add(Ballot(5, "s"))
        state.reset_round()
        assert state.ballot_num == Ballot(5, "s")
        assert state.accept_val is None
        assert not state.decision
        assert Ballot(5, "s") in state.applied

    def test_applied_log_is_bounded(self):
        state = AvantanState.initial("s")
        for index in range(100):
            state.remember_applied_value(value(Ballot(index, "s"), ("s", 1, 0)))
        assert len(state.applied_log) == avantan_state.APPLIED_LOG_RETENTION
        # Newest entries survive.
        assert state.applied_log[-1].value_id == Ballot(99, "s")

    def test_recent_applied_ids_newest_last(self, monkeypatch):
        monkeypatch.setattr(avantan_state, "REVEAL_WINDOW", 4)
        state = AvantanState.initial("s")
        for index in range(20):
            state.remember_applied_value(value(Ballot(index, "s"), ("s", 1, 0)))
        ids = state.recent_applied_ids()
        assert ids == (Ballot(16, "s"), Ballot(17, "s"), Ballot(18, "s"), Ballot(19, "s"))
