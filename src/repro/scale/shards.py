"""The entity directory and the route table that reads it.

Samya's §3.1 directory remark: "a run-time library can provide lookup
and directory services to identify the sites that maintain a specific
resource data."  :class:`EntityDirectory` is that service — one dict
from entity id to an opaque record — for the core multi-entity
deployment and the scale harness alike.  At 10^5-10^6 entities the
directory would be the hot object if every request resolved through it;
:class:`RouteTable` resolves each id once per directory change instead,
so the request path pays one list index.
"""

from __future__ import annotations

from typing import Any


class EntityDirectory:
    """Entity id -> record, with a lookup counter and a version.

    The record type is opaque: the core directory stores routing
    policies, the scale harness stores host groups.  ``register`` is
    write-once per id (a second registration is a deployment bug, not a
    lifecycle event) and ``lookup`` returns ``None`` for unknown ids so
    misrouted requests fail fast at the caller.
    """

    def __init__(self) -> None:
        self._records: dict[str, Any] = {}
        self.lookups = 0
        #: Bumped by every effective ``register`` / ``unregister``: what a
        #: :class:`RouteTable` compares to know its routes are current.
        self.version = 0

    # -- registration ------------------------------------------------------

    def register(self, entity_id: str, record: Any) -> None:
        if entity_id in self._records:
            raise ValueError(f"entity {entity_id!r} already registered")
        self._records[entity_id] = record
        self.version += 1

    def unregister(self, entity_id: str) -> None:
        if self._records.pop(entity_id, None) is not None:
            self.version += 1

    # -- lookup ------------------------------------------------------------

    def lookup(self, entity_id: str) -> Any | None:
        self.lookups += 1
        return self._records.get(entity_id)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def entities(self) -> list[str]:
        """All registered ids, sorted (diagnostics; O(n), not a hot path)."""
        return sorted(self._records)


class RouteTable:
    """Dense ``row -> record`` routes, resolved per entity, not per request.

    ``ids[row]`` goes through ``directory.lookup`` when the table is built
    and again once the directory's ``version`` has moved: every reader
    shares one resolution and pays one integer compare to stay current.
    """

    __slots__ = ("directory", "ids", "version", "_records")

    def __init__(self, directory: EntityDirectory, ids: list[str]) -> None:
        self.directory = directory
        self.ids = ids
        self.version = -1
        self.records()

    def records(self) -> list[Any | None]:
        """The current routes; ``None`` where the id is not registered."""
        if self.version != self.directory.version:
            self.version = self.directory.version
            self._records = list(map(self.directory.lookup, self.ids))
        return self._records
