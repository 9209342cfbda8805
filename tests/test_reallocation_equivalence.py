"""Algorithm 2 in one pass equals Algorithm 2 as first written.

``repro.core.reallocation`` walks the states once per entry point.  The
multi-pass version it replaced is frozen below; every strategy must give
the same grants in the same key order, and every malformed input or
misbehaving strategy must fail with the same ``ReallocationError``.
"""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entity import SiteTokenState
from repro.core.reallocation import (
    EqualSplitReallocator,
    GreedyMaxUsageReallocator,
    ProportionalReallocator,
    ReallocationError,
    redistribute_tokens,
)

# -- the frozen reference -----------------------------------------------------


def ref_validate(states: Sequence[SiteTokenState]) -> None:
    if not states:
        raise ReallocationError("reallocation requires at least one site")
    site_ids = [state.site_id for state in states]
    if len(set(site_ids)) != len(site_ids):
        raise ReallocationError(f"duplicate site ids in reallocation input: {site_ids}")
    entities = {state.entity_id for state in states}
    if len(entities) != 1:
        raise ReallocationError(f"mixed entities in reallocation input: {entities}")


def ref_split_equally(spare: int, site_ids: Sequence[str]) -> dict[str, int]:
    count = len(site_ids)
    share, remainder = divmod(spare, count)
    shares = {site_id: share for site_id in site_ids}
    for site_id in sorted(site_ids)[:remainder]:
        shares[site_id] += 1
    return shares


class RefGreedy:
    def allocate(self, states):
        ref_validate(states)
        spare = sum(state.tokens_left for state in states)
        total_wanted = sum(state.tokens_wanted for state in states)
        wants = {state.site_id: state.tokens_wanted for state in states}
        if total_wanted > spare:
            outstanding = sum(wants.values())
            by_ascending_want = sorted(states, key=lambda s: (s.tokens_wanted, s.site_id))
            for state in by_ascending_want:
                if outstanding <= spare:
                    break
                outstanding -= wants[state.site_id]
                wants[state.site_id] = 0
        granted = dict(wants)
        leftover = spare - sum(granted.values())
        for site_id, extra in ref_split_equally(leftover, [s.site_id for s in states]).items():
            granted[site_id] += extra
        return granted


class RefProportional:
    def allocate(self, states):
        ref_validate(states)
        spare = sum(state.tokens_left for state in states)
        total_wanted = sum(state.tokens_wanted for state in states)
        if total_wanted <= spare or total_wanted == 0:
            granted = {state.site_id: state.tokens_wanted for state in states}
        else:
            granted = {
                state.site_id: state.tokens_wanted * spare // total_wanted
                for state in states
            }
        leftover = spare - sum(granted.values())
        for site_id, extra in ref_split_equally(leftover, [s.site_id for s in states]).items():
            granted[site_id] += extra
        return granted


class RefEqualSplit:
    def allocate(self, states):
        ref_validate(states)
        spare = sum(state.tokens_left for state in states)
        return ref_split_equally(spare, [state.site_id for state in states])


def ref_redistribute_tokens(states, reallocator=None):
    strategy = reallocator if reallocator is not None else RefGreedy()
    granted = strategy.allocate(states)
    pooled = sum(state.tokens_left for state in states)
    distributed = sum(granted.values())
    if distributed != pooled:
        raise ReallocationError(
            f"reallocator {type(strategy).__name__} broke conservation: "
            f"pooled {pooled} tokens but distributed {distributed}"
        )
    if set(granted) != {state.site_id for state in states}:
        raise ReallocationError("reallocator must grant to exactly the participants")
    if any(amount < 0 for amount in granted.values()):
        raise ReallocationError("reallocator granted a negative amount")
    return granted


PAIRS = [
    (GreedyMaxUsageReallocator(), RefGreedy()),
    (ProportionalReallocator(), RefProportional()),
    (EqualSplitReallocator(), RefEqualSplit()),
]

# -- inputs -----------------------------------------------------------------

SITE_IDS = [f"site-{index:02d}" for index in range(24)]


@st.composite
def pools(draw, max_size=20):
    """1-20 states of one entity.  Site ids come in a drawn order (so the
    remainder goes to ids that are not first in the input); wants come
    from a small range, so ties and demand above and below the spares
    are all common."""
    size = draw(st.integers(1, max_size))
    ids = draw(st.permutations(SITE_IDS))[:size]
    return [
        SiteTokenState(
            site_id,
            "VM",
            draw(st.integers(0, 12)),
            draw(st.sampled_from([0, 0, 1, 2, 3, 5, 5, 8, 13, 40])),
        )
        for site_id in ids
    ]


def outcome(call):
    """``("ok", [(site, tokens), ...])`` in key order, or the error."""
    try:
        return "ok", list(call().items())
    except ReallocationError as error:
        return "error", str(error)


# -- equivalence ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(pool=pools())
def test_every_strategy_grants_what_the_reference_grants(pool):
    for ours, reference in PAIRS:
        expected = outcome(lambda: reference.allocate(pool))
        assert expected[0] == "ok"
        assert outcome(lambda: ours.allocate(pool)) == expected
        assert outcome(lambda: ours.allocate(tuple(pool))) == expected
        assert outcome(lambda: redistribute_tokens(pool, ours)) == outcome(
            lambda: ref_redistribute_tokens(pool, reference)
        )
    assert outcome(lambda: redistribute_tokens(pool)) == outcome(
        lambda: ref_redistribute_tokens(pool)
    )


@settings(max_examples=100, deadline=None)
@given(pool=pools(), data=st.data())
def test_malformed_inputs_fail_alike(pool, data):
    # Duplicate a site, mix in another entity, or both (the duplicate
    # check wins, as it always did).
    broken = list(pool)
    if len(pool) == 1 or data.draw(st.booleans(), label="duplicate"):
        twin = data.draw(st.sampled_from(pool), label="twin")
        broken.insert(data.draw(st.integers(0, len(broken))), twin)
    if len(broken) == len(pool) or data.draw(st.booleans(), label="mix"):
        index = data.draw(st.integers(0, len(broken) - 1), label="mixed")
        state = broken[index]
        broken[index] = SiteTokenState(
            state.site_id, "GPU", state.tokens_left, state.tokens_wanted
        )
    for ours, reference in PAIRS:
        expected = outcome(lambda: reference.allocate(broken))
        assert expected[0] == "error"
        assert outcome(lambda: ours.allocate(broken)) == expected
        assert outcome(lambda: redistribute_tokens(broken, ours)) == expected


@pytest.mark.parametrize("ours, reference", PAIRS)
def test_empty_input_fails_alike(ours, reference):
    assert outcome(lambda: ours.allocate([])) == outcome(lambda: reference.allocate([]))
    assert outcome(lambda: redistribute_tokens([], ours))[0] == "error"


# -- misbehaving strategies ---------------------------------------------------


class Scripted:
    """A strategy that returns a fixed (possibly wrong) grant."""

    def __init__(self, granted):
        self.granted = granted

    def allocate(self, states):
        return dict(self.granted)


@st.composite
def bad_grants(draw):
    """A pool and a grant that breaks exactly one of the checks
    ``redistribute_tokens`` makes: conservation, participants, sign."""
    pool = draw(pools(max_size=8))
    granted = RefGreedy().allocate(pool)
    ids = list(granted)
    kind = draw(st.sampled_from(["conservation", "stranger", "missing", "negative"]))
    if len(ids) < 2 and kind in ("missing", "negative"):
        kind = "conservation"
    if kind == "conservation":
        granted[draw(st.sampled_from(ids))] += draw(st.sampled_from([-3, -1, 1, 7]))
    elif kind == "stranger":
        granted["outsider"] = granted.pop(draw(st.sampled_from(ids)))
    elif kind == "missing":
        # Drop a participant but keep the total.
        tokens = granted.pop(ids[0])
        granted[ids[1]] += tokens
    else:
        # Move tokens so one grant goes negative but the total holds.
        moved = granted[ids[0]] + draw(st.integers(1, 5))
        granted[ids[0]] -= moved
        granted[ids[1]] += moved
    return pool, granted


@settings(max_examples=200, deadline=None)
@given(case=bad_grants())
def test_misbehaving_strategies_fail_alike(case):
    pool, granted = case
    expected = outcome(lambda: ref_redistribute_tokens(pool, Scripted(granted)))
    assert expected[0] == "error"
    assert outcome(lambda: redistribute_tokens(pool, Scripted(granted))) == expected


def test_grant_to_duplicated_ids_is_judged_alike():
    # A strategy that skips validation sees a duplicated site id: the
    # grant covers the id set, so only the participant check can object.
    pool = [SiteTokenState("a", "VM", 2, 0), SiteTokenState("a", "VM", 1, 0)]
    for granted in ({"a": 3}, {"a": 2, "b": 1}):
        expected = outcome(lambda: ref_redistribute_tokens(pool, Scripted(granted)))
        assert outcome(lambda: redistribute_tokens(pool, Scripted(granted))) == expected
