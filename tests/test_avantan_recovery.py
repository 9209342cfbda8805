"""Direct unit tests of the Avantan recovery machinery.

These drive the handlers with crafted messages to hit the §4.3.1/§4.3.2
case analysis deterministically, complementing the scenario tests.
"""

from repro.core.avantan import state as avantan_state
from repro.core.avantan.base import Phase, Role
from repro.core.avantan.state import AcceptValue, Ballot
from repro.core.config import AvantanVariant
from repro.core.entity import SiteTokenState
from repro.core.messages import (
    AcceptValueMsg,
    ElectionGetValue,
    ElectionOkValue,
    RecoveryQuery,
    RecoveryReply,
)

from tests.helpers import MiniCluster, acquire_burst, uniform_ops


def make_value(ballot, *site_tokens):
    return AcceptValue(
        value_id=ballot,
        entity_id="VM",
        states=tuple(
            SiteTokenState(name, "VM", left, wanted)
            for name, left, wanted in site_tokens
        ),
    )


def ok_response(ballot, site, tokens_left, accept_val=None, accept_num=None,
                decision=False, applied_ids=(), recently_applied=()):
    return ElectionOkValue(
        ballot=ballot,
        init_val=SiteTokenState(site, "VM", tokens_left, 0),
        accept_val=accept_val,
        accept_num=accept_num,
        decision=decision,
        applied_ids=applied_ids,
        recently_applied=recently_applied,
    )


class TestMajorityValueSelection:
    """Algorithm 1 lines 15-24, fed crafted response sets."""

    def _leader_with_responses(self, mini, responses):
        leader = mini.site(0)
        protocol = leader.protocol
        protocol.trigger()
        ballot = protocol.state.ballot_num
        for src, make in responses.items():
            protocol._on_election_ok(make(ballot), src)
        return protocol

    def test_fresh_value_concatenates_init_vals(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        a, b, c = [site.name for site in mini.sites]
        protocol = self._leader_with_responses(
            mini, {b: lambda bal: ok_response(bal, b, 100)}
        )
        value = protocol.state.accept_val
        assert value is not None
        assert set(value.participants) == {a, b}
        assert value.total_tokens() == 200  # own 100 + b's 100

    def test_orphaned_accept_val_is_re_proposed(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        a, b, c = [site.name for site in mini.sites]
        orphan = make_value(Ballot(1, c), (b, 50, 0), (c, 70, 0))
        protocol = self._leader_with_responses(
            mini,
            {b: lambda bal: ok_response(bal, b, 50, accept_val=orphan,
                                        accept_num=Ballot(1, c))},
        )
        assert protocol.state.accept_val is orphan

    def test_highest_accept_num_wins_between_orphans(self):
        # 5 sites -> majority of 3, so the leader waits for two crafted
        # responses carrying different orphaned values.
        from repro.net.regions import PAPER_REGIONS

        mini = MiniCluster(
            variant=AvantanVariant.MAJORITY, maximum=500, seed=2,
            regions=tuple(PAPER_REGIONS),
        )
        a, b, c, d, e = [site.name for site in mini.sites]
        old = make_value(Ballot(1, b), (b, 10, 0))
        new = make_value(Ballot(2, c), (c, 20, 0))
        leader = mini.site(0).protocol
        leader.trigger()
        ballot = leader.state.ballot_num
        leader._on_election_ok(
            ok_response(ballot, b, 10, accept_val=old, accept_num=Ballot(1, b)), b
        )
        leader._on_election_ok(
            ok_response(ballot, c, 20, accept_val=new, accept_num=Ballot(2, c)), c
        )
        # Lines 19-20: the orphan with the highest AcceptNum is re-proposed.
        assert leader.state.accept_val is new

    def test_decided_response_short_circuits(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        a, b, c = [site.name for site in mini.sites]
        decided = make_value(Ballot(1, c), (b, 50, 0), (c, 70, 0))
        leader = mini.site(0).protocol
        leader.trigger()
        ballot = leader.state.ballot_num
        leader._on_election_ok(
            ok_response(ballot, b, 50, accept_val=decided,
                        accept_num=Ballot(1, c), decision=True),
            b,
        )
        # The decided value was applied and the round finished instantly.
        assert decided.value_id in leader.state.applied
        assert leader.role is Role.IDLE


class TestRevealWindow:
    def test_promise_reveals_the_patched_window(self, monkeypatch):
        # The seam a recovery test shrinks: REVEAL_WINDOW is read when a
        # promise is built, so patching it bounds what a cohort reveals.
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        a, b, c = [site.name for site in mini.sites]
        cohort = mini.site(1).protocol
        for num in (1, 2, 3):
            cohort.state.remember_applied_value(make_value(Ballot(num, c), (b, 10, 0)))
        sent = []
        cohort._send = lambda dst, payload: sent.append(payload)
        monkeypatch.setattr(avantan_state, "REVEAL_WINDOW", 1)
        cohort._on_election_get_value(ElectionGetValue(Ballot(5, a), "VM"), a)
        (promise,) = sent
        assert isinstance(promise, ElectionOkValue)
        assert promise.applied_ids == (Ballot(3, c),)
        assert [value.value_id for value in promise.recently_applied] == [Ballot(3, c)]


class TestStaleParticipantResolution:
    def test_stale_responder_excluded_and_backfilled(self):
        # 5 sites: b is stale w.r.t. a value revealed by c — the leader
        # must not pool b's balance, and must send b the decision.
        from repro.core.messages import DecisionMsg
        from repro.net.regions import PAPER_REGIONS

        mini = MiniCluster(
            variant=AvantanVariant.MAJORITY, maximum=500, seed=2,
            regions=tuple(PAPER_REGIONS),
        )
        a, b, c, d, e = [site.name for site in mini.sites]
        decided = make_value(Ballot(1, c), (b, 100, 0), (c, 100, 0))
        leader = mini.site(0).protocol
        sent = []
        original_send = leader._send
        leader._send = lambda dst, payload: (sent.append((dst, payload)),
                                             original_send(dst, payload))
        leader.trigger()
        ballot = leader.state.ballot_num
        leader._on_election_ok(
            ok_response(ballot, b, 100, applied_ids=(), recently_applied=()), b
        )
        leader._on_election_ok(
            ok_response(
                ballot, c, 120,
                applied_ids=(decided.value_id,),
                recently_applied=(decided,),
            ),
            c,
        )
        value = leader.state.accept_val
        assert value is not None
        # b's stale InitVal was excluded from the fresh value...
        assert b not in value.participants
        assert {a, c} <= set(value.participants)
        # ...and b was sent the decision it missed.
        backfills = [
            payload for dst, payload in sent
            if dst == b and isinstance(payload, DecisionMsg)
            and payload.accept_val.value_id == decided.value_id
        ]
        assert backfills

    def test_resolution_applies_missed_value_to_leader(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=300)
        a, b, c = [site.name for site in mini.sites]
        site_a = mini.site(0)
        # A value granting site a different tokens than it thinks it has.
        missed = make_value(Ballot(3, c), (a, 100, 0), (c, 100, 0))
        protocol = site_a.protocol
        protocol.trigger()
        ballot = protocol.state.ballot_num
        protocol._on_election_ok(
            ok_response(
                ballot, b, 100,
                recently_applied=(missed,),
                applied_ids=(missed.value_id,),
            ),
            b,
        )
        # The leader applied the missed value before pooling fresh state.
        assert missed.value_id in protocol.state.applied
        mini.check()


class TestStarRecoveryHandlers:
    def build(self):
        mini = MiniCluster(variant=AvantanVariant.STAR, maximum=300)
        return mini, [site.name for site in mini.sites]

    def test_query_applied_value_reports_decided(self):
        mini, (a, b, c) = self.build()
        site_b = mini.site(1)
        value = make_value(Ballot(2, a), (a, 60, 0), (b, 100, 0))
        site_b.apply_redistribution(value)
        replies = []
        site_b.protocol._send = lambda dst, payload: replies.append(payload)
        site_b.protocol._on_recovery_query(
            RecoveryQuery(Ballot(2, a), value.value_id), c
        )
        assert replies[0].applied and replies[0].decision

    def test_query_held_value_reports_it(self):
        mini, (a, b, c) = self.build()
        site_b = mini.site(1)
        value = make_value(Ballot(2, a), (a, 60, 0), (b, 100, 0))
        site_b.protocol.state.accept_val = value
        replies = []
        site_b.protocol._send = lambda dst, payload: replies.append(payload)
        site_b.protocol._on_recovery_query(
            RecoveryQuery(Ballot(2, a), value.value_id), c
        )
        assert replies[0].accept_val is value and not replies[0].applied

    def test_query_unknown_value_marks_ballot_dead(self):
        mini, (a, b, c) = self.build()
        site_b = mini.site(1)
        ballot = Ballot(5, a)
        replies = []
        site_b.protocol._send = lambda dst, payload: replies.append(payload)
        site_b.protocol._on_recovery_query(RecoveryQuery(ballot, ballot), c)
        assert replies[0].accept_val is None
        assert ballot in site_b.protocol.state.dead_ballots

    def test_recovering_cohort_decides_on_applied_reply(self):
        mini, (a, b, c) = self.build()
        site_b = mini.site(1)
        value = make_value(Ballot(2, a), (a, 60, 0), (b, 100, 0), (c, 100, 0))
        protocol = site_b.protocol
        protocol.state.ballot_num = Ballot(2, a)
        protocol.state.accept_val = value
        protocol.role = Role.COHORT
        protocol.phase = Phase.RECOVERY
        protocol._on_recovery_reply(
            RecoveryReply(Ballot(2, a), value.value_id, None, decision=False, applied=True),
            c,
        )
        assert value.value_id in protocol.state.applied
        assert protocol.role is Role.IDLE
        mini.check()

    def test_recovering_cohort_aborts_on_bottom_reply(self):
        mini, (a, b, c) = self.build()
        site_b = mini.site(1)
        value = make_value(Ballot(2, a), (a, 60, 0), (b, 100, 0), (c, 100, 0))
        protocol = site_b.protocol
        protocol.state.ballot_num = Ballot(2, a)
        protocol.state.accept_val = value
        protocol.role = Role.COHORT
        protocol.phase = Phase.RECOVERY
        tokens_before = site_b.state.tokens_left
        protocol._on_recovery_reply(
            RecoveryReply(Ballot(2, a), value.value_id, None, decision=False, applied=False),
            c,
        )
        # The round is dead: no tokens moved, the ballot is poisoned.
        assert site_b.state.tokens_left == tokens_before
        assert Ballot(2, a) in protocol.state.dead_ballots
        assert protocol.role is Role.IDLE

    def test_recovering_cohort_decides_when_all_other_cohorts_hold_value(self):
        mini, (a, b, c) = self.build()
        site_b = mini.site(1)
        value = make_value(Ballot(2, a), (a, 60, 0), (b, 100, 0), (c, 100, 0))
        protocol = site_b.protocol
        protocol.state.ballot_num = Ballot(2, a)
        protocol.state.accept_val = value
        protocol.role = Role.COHORT
        protocol.phase = Phase.RECOVERY
        protocol._on_recovery_reply(
            RecoveryReply(Ballot(2, a), value.value_id, value, decision=False, applied=False),
            c,
        )
        # c (the only other non-leader participant) holds the value, so
        # the old leader must have stored it everywhere: decide.
        assert value.value_id in protocol.state.applied
        assert protocol.role is Role.IDLE


class TestPrefixReplayIdempotence:
    """At-least-once delivery property: replaying any prefix of the
    envelopes a site received during a real run — twice — must leave the
    Avantan and token state byte-identical, because envelope-level
    ``msg_id`` dedup absorbs every copy before it can take effect."""

    _runs: dict = {}

    @classmethod
    def _recorded_run(cls, variant):
        """One finished run per variant, with every envelope site 0 saw."""
        if variant not in cls._runs:
            mini = MiniCluster(variant=variant, maximum=300, seed=5)
            site = mini.site(0)
            delivered = []
            original = site.on_message

            def recording(message, _original=original, _log=delivered):
                _log.append(message)
                _original(message)

            site.on_message = recording
            for index in range(3):
                mini.client_for(
                    mini.site(index).region,
                    uniform_ops(seed=index, count=300, rate=30),
                )
            mini.run(until=40.0)
            del site.on_message  # stop recording; replays go in directly
            assert delivered, "run delivered nothing to site 0"
            cls._runs[variant] = (mini, site, delivered)
        return cls._runs[variant]

    @staticmethod
    def _fingerprint(site):
        protocol = site.protocol
        return repr(
            (site.state, protocol.state, protocol.role, protocol.phase)
        )

    def test_replaying_any_prefix_twice_is_byte_identical(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=10, deadline=None)
        @given(
            variant=st.sampled_from(
                [AvantanVariant.MAJORITY, AvantanVariant.STAR]
            ),
            fraction=st.floats(0.0, 1.0),
        )
        def check(variant, fraction):
            mini, site, delivered = self._recorded_run(variant)
            before = self._fingerprint(site)
            prefix = delivered[: int(len(delivered) * fraction)]
            for _ in range(2):
                for message in prefix:
                    site.on_message(message)
            assert self._fingerprint(site) == before
            mini.check()

        check()

    def test_full_replay_is_byte_identical(self):
        mini, site, delivered = self._recorded_run(AvantanVariant.MAJORITY)
        before = self._fingerprint(site)
        for message in delivered:
            site.on_message(message)
        assert self._fingerprint(site) == before
        mini.check()


class TestLeaderDuels:
    def test_simultaneous_triggers_converge(self):
        for variant in (AvantanVariant.MAJORITY, AvantanVariant.STAR):
            mini = MiniCluster(variant=variant, maximum=300, seed=8)
            # Every site's client exhausts local supply at the same time.
            for index in range(3):
                mini.client_for(
                    mini.site(index).region, acquire_burst(1.0, 110, spacing=0.001)
                )
            mini.run(until=60.0)
            mini.check()
            for site in mini.sites:
                assert site.protocol.role is Role.IDLE, variant
                assert not site._pending, variant

    def test_repeated_duels_under_load(self):
        mini = MiniCluster(variant=AvantanVariant.MAJORITY, maximum=150, seed=9)
        for index in range(3):
            mini.client_for(
                mini.site(index).region,
                uniform_ops(seed=index, count=800, rate=40, acquire_fraction=0.8),
            )
        mini.run(until=60.0)
        mini.check()
