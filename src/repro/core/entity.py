"""Entities and token state (the paper's data model, §3.2).

An *entity* is a resource type (e.g. ``"VM"``) with a preset maximum
``M_e``; multiple instances of an entity are indistinguishable *tokens*.
Each site holds an :class:`EntityState` — the Table 1a triple
``(id, TokensLeft, TokensWanted)`` — for every entity it manages.
"""

from __future__ import annotations

from dataclasses import dataclass


class TokenError(ValueError):
    """Raised on invalid token operations (negative amounts, overdraws)."""


@dataclass(frozen=True)
class Entity:
    """A resource type with a global token limit ``maximum`` (M_e)."""

    id: str
    maximum: int

    def __post_init__(self) -> None:
        if self.maximum < 0:
            raise TokenError(f"entity maximum must be >= 0, got {self.maximum}")


class EntityState:
    """A site's local state for one entity (Table 1a).

    The slots are the storage contract subclasses may override:
    :class:`repro.scale.entity_table.EntityView` shadows all three with
    properties backed by columnar table rows, and the methods below are
    written against the attribute *interface* (never the slots
    directly) so they work unchanged over either representation.
    """

    __slots__ = ("entity_id", "tokens_left", "tokens_wanted")

    def __init__(self, entity_id: str, tokens_left: int = 0, tokens_wanted: int = 0) -> None:
        if tokens_left < 0 or tokens_wanted < 0:
            raise TokenError("token counts must be non-negative")
        self.entity_id = entity_id
        self.tokens_left = tokens_left
        self.tokens_wanted = tokens_wanted

    def can_acquire(self, n: int) -> bool:
        return 0 < n <= self.tokens_left

    def acquire(self, n: int) -> None:
        """Apply Eq. 2: TokensLeft -= n.  Caller must check :meth:`can_acquire`."""
        if n <= 0:
            raise TokenError(f"acquire amount must be positive, got {n}")
        if n > self.tokens_left:
            raise TokenError(
                f"cannot acquire {n} tokens, only {self.tokens_left} left locally"
            )
        self.tokens_left -= n

    def release(self, m: int) -> None:
        """Apply Eq. 3: TokensLeft += m."""
        if m <= 0:
            raise TokenError(f"release amount must be positive, got {m}")
        self.tokens_left += m

    def snapshot(self, site_id: str) -> "SiteTokenState":
        return SiteTokenState(site_id, self.entity_id, self.tokens_left, self.tokens_wanted)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EntityState({self.entity_id!r}, left={self.tokens_left}, "
            f"wanted={self.tokens_wanted})"
        )


@dataclass(frozen=True, slots=True)
class SiteTokenState:
    """One element of Avantan's AcceptVal list: a site's InitVal.

    This is the ``<e, TL_t, TW_t>`` triple of Eq. 6, tagged with the site
    id so the reallocation procedure knows whose share is whose.
    """

    site_id: str
    entity_id: str
    tokens_left: int
    tokens_wanted: int

    def __post_init__(self) -> None:
        if self.tokens_left < 0 or self.tokens_wanted < 0:
            raise TokenError("token counts must be non-negative")

    def __reduce__(self):
        # Pickled by the WAL; see ``Ballot.__reduce__``.
        return SiteTokenState, (
            self.site_id, self.entity_id, self.tokens_left, self.tokens_wanted
        )
