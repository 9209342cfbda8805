"""Token reallocation (Algorithm 2, §4.4).

After Avantan agrees on the AcceptVal list, every participating site runs
the same deterministic procedure on the same input and therefore derives
the same allocation without further communication.

Conservation is the non-negotiable invariant: the tokens granted across
R_t sum to exactly the tokens pooled (S_t), so the global constraint
(Eq. 1) is preserved by construction.

Two deliberate deviations from the paper's pseudocode, both documented in
DESIGN.md:

- Algorithm 2 line 14 adds ``TL_t`` of the rejected site to the spare
  pool, but every ``TL_t`` is already in ``S_t`` from line 6; the
  termination condition only works if rejecting a site removes its
  *wanted* amount from the outstanding demand.  We implement that
  mathematically consistent reading.
- The equal split of trailing spares (line 23) is fractional in the
  paper; tokens are integral here, so we use floor division and hand the
  remainder one token each to the lexicographically smallest site ids,
  keeping the result deterministic across sites.

The procedure is pluggable (§4.4 closing remark): alternative strategies
used by the ablation benchmarks live alongside the paper's greedy one.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter
from typing import Protocol

from repro.core.entity import SiteTokenState


class ReallocationError(ValueError):
    """Raised for malformed reallocation inputs."""


class Reallocator(Protocol):
    """A deterministic spare-token allocation strategy."""

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        """Map each participating site id to its granted token count.

        Implementations must conserve tokens exactly:
        ``sum(result.values()) == sum(s.tokens_left for s in states)``.
        """
        ...  # pragma: no cover


def _validate(states: Sequence[SiteTokenState]) -> tuple[int, dict[str, int]]:
    """Check the input in one pass; return the pooled spares (S_t) and
    each site's TokensWanted, keyed in input order."""
    if not states:
        raise ReallocationError("reallocation requires at least one site")
    entity_id = states[0].entity_id
    mixed = False
    spare = 0
    wants: dict[str, int] = {}
    for state in states:
        spare += state.tokens_left
        wants[state.site_id] = state.tokens_wanted
        if state.entity_id != entity_id:
            mixed = True
    if len(wants) != len(states):
        site_ids = [state.site_id for state in states]
        raise ReallocationError(f"duplicate site ids in reallocation input: {site_ids}")
    if mixed:
        entities = {state.entity_id for state in states}
        raise ReallocationError(f"mixed entities in reallocation input: {entities}")
    return spare, wants


def _share_out(granted: dict[str, int], spare: int) -> dict[str, int]:
    """Add an integer-exact equal split of ``spare`` to ``granted`` in
    place; the remainder goes one token each to the smallest ids."""
    share, remainder = divmod(spare, len(granted))
    if share:
        for site_id in granted:
            granted[site_id] += share
    if remainder:
        for site_id in sorted(granted)[:remainder]:
            granted[site_id] += 1
    return granted


class GreedyMaxUsageReallocator:
    """The paper's Algorithm 2: maximise overall token usage.

    When demand exceeds supply, requests are rejected smallest-want-first
    (RejectSomeRequests); surviving wants are granted in full and any
    trailing spares are split equally (AllocateTokens).
    """

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        spare, wants = _validate(states)  # S_t
        outstanding = sum(wants.values())  # TotalTW
        if outstanding > spare:
            # RejectSomeRequests: zero out wants, smallest first, until
            # demand fits the spares.  Ties on the wanted amount break on
            # site id so every site derives the same rejection set.
            for site_id, want in sorted(wants.items(), key=itemgetter(1, 0)):
                if outstanding <= spare:
                    break
                outstanding -= want
                wants[site_id] = 0
        # AllocateTokens: grant surviving wants, then split the remainder.
        return _share_out(wants, spare - outstanding)


#: The strategy ``redistribute_tokens`` runs when given none (stateless).
_GREEDY = GreedyMaxUsageReallocator()


class ProportionalReallocator:
    """Grant wants scaled proportionally when supply is short (ablation).

    Nobody is rejected outright; every want is scaled by ``spare /
    total_wanted`` (floored), and the integer slack plus trailing spares
    are split equally.  Contrast strategy for the ``ablation_realloc``
    figure.
    """

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        spare, wants = _validate(states)
        total_wanted = sum(wants.values())
        if total_wanted <= spare or total_wanted == 0:
            granted = wants
        else:
            granted = {
                site_id: want * spare // total_wanted for site_id, want in wants.items()
            }
        return _share_out(granted, spare - sum(granted.values()))


class EqualSplitReallocator:
    """Ignore demand entirely; rebalance the pool into equal shares.

    The degenerate strategy — what a system without TokensWanted
    signalling could do.  Used as the ablation lower bound.
    """

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        spare, wants = _validate(states)
        return _share_out(dict.fromkeys(wants, 0), spare)


def redistribute_tokens(
    states: Sequence[SiteTokenState], reallocator: Reallocator | None = None
) -> dict[str, int]:
    """Run a reallocation strategy and verify conservation.

    This is the entry point sites call after Avantan decides; the
    conservation check turns any buggy strategy into a loud failure
    instead of a silent constraint violation.
    """
    strategy = reallocator if reallocator is not None else _GREEDY
    granted = strategy.allocate(states)
    pooled = 0
    site_ids = set()
    for state in states:
        pooled += state.tokens_left
        site_ids.add(state.site_id)
    distributed = sum(granted.values())
    if distributed != pooled:
        raise ReallocationError(
            f"reallocator {type(strategy).__name__} broke conservation: "
            f"pooled {pooled} tokens but distributed {distributed}"
        )
    if granted.keys() != site_ids:
        raise ReallocationError("reallocator must grant to exactly the participants")
    if granted and min(granted.values()) < 0:
        raise ReallocationError("reallocator granted a negative amount")
    return granted
