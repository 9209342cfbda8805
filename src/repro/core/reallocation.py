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


def _validate(states: Sequence[SiteTokenState]) -> None:
    if not states:
        raise ReallocationError("reallocation requires at least one site")
    site_ids = [state.site_id for state in states]
    if len(set(site_ids)) != len(site_ids):
        raise ReallocationError(f"duplicate site ids in reallocation input: {site_ids}")
    entities = {state.entity_id for state in states}
    if len(entities) != 1:
        raise ReallocationError(f"mixed entities in reallocation input: {entities}")


def _split_equally(spare: int, site_ids: Sequence[str]) -> dict[str, int]:
    """Integer-exact equal split; remainder goes to the smallest ids."""
    count = len(site_ids)
    share, remainder = divmod(spare, count)
    shares = {site_id: share for site_id in site_ids}
    for site_id in sorted(site_ids)[:remainder]:
        shares[site_id] += 1
    return shares


class GreedyMaxUsageReallocator:
    """The paper's Algorithm 2: maximise overall token usage.

    When demand exceeds supply, requests are rejected smallest-want-first
    (RejectSomeRequests); surviving wants are granted in full and any
    trailing spares are split equally (AllocateTokens).
    """

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        _validate(states)
        spare = sum(state.tokens_left for state in states)  # S_t
        total_wanted = sum(state.tokens_wanted for state in states)  # TotalTW

        wants = {state.site_id: state.tokens_wanted for state in states}
        if total_wanted > spare:
            self._reject_some_requests(states, wants, spare)

        # AllocateTokens: grant surviving wants, then split the remainder.
        granted = dict(wants)
        leftover = spare - sum(granted.values())
        for site_id, extra in _split_equally(leftover, [s.site_id for s in states]).items():
            granted[site_id] += extra
        return granted

    @staticmethod
    def _reject_some_requests(
        states: Sequence[SiteTokenState], wants: dict[str, int], spare: int
    ) -> None:
        """Zero out wants, smallest first, until demand fits the spares.

        Ties on the wanted amount break on site id so every site derives
        the same rejection set.
        """
        outstanding = sum(wants.values())
        by_ascending_want = sorted(states, key=lambda s: (s.tokens_wanted, s.site_id))
        for state in by_ascending_want:
            if outstanding <= spare:
                break
            outstanding -= wants[state.site_id]
            wants[state.site_id] = 0


class ProportionalReallocator:
    """Grant wants scaled proportionally when supply is short (ablation).

    Nobody is rejected outright; every want is scaled by ``spare /
    total_wanted`` (floored), and the integer slack plus trailing spares
    are split equally.  Contrast strategy for the ``ablation_realloc``
    figure.
    """

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        _validate(states)
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
        for site_id, extra in _split_equally(leftover, [s.site_id for s in states]).items():
            granted[site_id] += extra
        return granted


class EqualSplitReallocator:
    """Ignore demand entirely; rebalance the pool into equal shares.

    The degenerate strategy — what a system without TokensWanted
    signalling could do.  Used as the ablation lower bound.
    """

    def allocate(self, states: Sequence[SiteTokenState]) -> dict[str, int]:
        _validate(states)
        spare = sum(state.tokens_left for state in states)
        return _split_equally(spare, [state.site_id for state in states])


def redistribute_tokens(
    states: Sequence[SiteTokenState], reallocator: Reallocator | None = None
) -> dict[str, int]:
    """Run a reallocation strategy and verify conservation.

    This is the entry point sites call after Avantan decides; the
    conservation check turns any buggy strategy into a loud failure
    instead of a silent constraint violation.
    """
    strategy = reallocator if reallocator is not None else GreedyMaxUsageReallocator()
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
