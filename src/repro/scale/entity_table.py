"""Vectorized per-site token state: columns, not objects.

One :class:`repro.core.entity.EntityState` per entity costs ~200 bytes
of Python object overhead plus pointer-chasing on every access; at 10^6
entities that is the difference between a site fitting in cache-friendly
arrays and a site thrashing the allocator.  :class:`EntityTable` stores
the Table 1a triple for *all* of a site's entities as contiguous signed
64-bit columns (``array('q')``), alongside the per-entity ledger columns
the conservation audit needs (cumulative acquired/released tokens,
commit/reject counts).

The protocol path still wants the :class:`~repro.core.entity.EntityState`
API — ``can_acquire``/``acquire``/``release``/``snapshot`` with their
validation — so :class:`EntityView` subclasses it with properties that
delegate straight into the table columns.  Views are created only for
entities that actually run a redistribution; the request hot path
operates on the columns by index.

:meth:`EntityTable.as_numpy` returns a zero-copy ``int64`` view of a
column for the vectorized audit and the aggregates.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from repro.core.entity import EntityState, TokenError

#: Column names, in declaration order.  ``tokens_left``/``tokens_wanted``
#: are the live Table 1a state; the rest is the append-only ledger the
#: vectorized conservation audit reads (sum(tokens_left across sites) +
#: (acquired - released) == maximum, per entity).
COLUMNS = (
    "tokens_left",
    "tokens_wanted",
    "acquired",
    "released",
    "committed",
    "rejected",
)


class EntityTable:
    """Columnar store for one site's entity token state."""

    __slots__ = ("ids", "_index", *COLUMNS)

    def __init__(self) -> None:
        self.ids: list[str] = []
        self._index: dict[str, int] = {}
        for column in COLUMNS:
            setattr(self, column, array("q"))

    # -- registration ------------------------------------------------------

    def add(self, entity_id: str, tokens_left: int = 0) -> int:
        """Register an entity; returns its row index."""
        return self.extend((entity_id,), (tokens_left,))[0]

    def extend(self, ids: Sequence[str], tokens_left: Sequence[int]) -> range:
        """Register a batch of entities; returns their rows.  Every check
        runs before the first mutation: a refused batch changes nothing."""
        count = len(ids)
        left = array("q", tokens_left)
        if len(left) != count:
            raise ValueError(f"{count} ids but {len(left)} token counts")
        index = self._index
        if not index.keys().isdisjoint(ids):
            taken = sorted(index.keys() & ids)
            raise ValueError(f"entity ids {taken} already in the table")
        if len(set(ids)) != count:
            raise ValueError("an entity id repeats within the batch")
        if count and min(left) < 0:
            raise TokenError("token counts must be non-negative")
        rows = range(len(self.ids), len(self.ids) + count)
        self.ids.extend(ids)
        index.update(zip(ids, rows))
        self.tokens_left.extend(left)
        zeros = array("q", bytes(8 * count))
        for column in COLUMNS[1:]:
            getattr(self, column).extend(zeros)
        return rows

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._index

    # -- access ------------------------------------------------------------

    def index_of(self, entity_id: str) -> int:
        return self._index[entity_id]

    def get(self, entity_id: str) -> int | None:
        """Row index or ``None`` — the hot-path lookup."""
        return self._index.get(entity_id)

    def view(self, index: int) -> "EntityView":
        """An ``EntityState``-compatible view of one row."""
        return EntityView(self, index)

    # -- aggregates --------------------------------------------------------

    def as_numpy(self, column: str):
        """Zero-copy int64 view of a column."""
        data = getattr(self, column)
        if not len(data):
            return np.empty(0, dtype=np.int64)
        return np.frombuffer(data, dtype=np.int64)

    def total(self, column: str) -> int:
        return int(self.as_numpy(column).sum())


class EntityView(EntityState):
    """An :class:`EntityState` whose storage is a table row.

    The parent's slots are shadowed by properties, so the inherited
    ``acquire``/``release``/``can_acquire``/``snapshot`` methods (and
    their validation) operate directly on the table columns.  The view
    carries no token state of its own — two views of the same row are
    always coherent.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: EntityTable, row: int) -> None:
        # Deliberately no super().__init__: state lives in the table.
        self._table = table
        self._row = row

    @property
    def entity_id(self) -> str:
        return self._table.ids[self._row]

    @property
    def tokens_left(self) -> int:
        return self._table.tokens_left[self._row]

    @tokens_left.setter
    def tokens_left(self, value: int) -> None:
        if value < 0:
            raise TokenError("token counts must be non-negative")
        self._table.tokens_left[self._row] = value

    @property
    def tokens_wanted(self) -> int:
        return self._table.tokens_wanted[self._row]

    @tokens_wanted.setter
    def tokens_wanted(self, value: int) -> None:
        if value < 0:
            raise TokenError("token counts must be non-negative")
        self._table.tokens_wanted[self._row] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EntityView({self.entity_id!r}, left={self.tokens_left}, "
            f"wanted={self.tokens_wanted})"
        )
