"""Sharded entity directory: hash-partitioned id -> record maps.

The flat per-entity dict in :mod:`repro.core.directory` is fine for tens
of entities; at 10^5-10^6 the directory itself becomes the hot object —
every request resolves an entity id, and lifecycle operations (auditing
a slice, listing a shard, rebalancing) want to touch bounded subsets,
not the whole map.  The classic fix is the one Samya's §3.1 directory
remark gestures at: partition the id space and let each shard own
routing and lifecycle for its entities.

Hashing uses ``zlib.crc32``, not the builtin ``hash``: string hashing is
salted per process (PYTHONHASHSEED), and shard assignment must be stable
across processes so two runs of the same seed place every entity
identically — the determinism contract the whole sim rests on.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterator


class ShardMap:
    """A stable hash partitioning of entity ids into ``n_shards`` buckets."""

    __slots__ = ("n_shards",)

    def __init__(self, n_shards: int = 64) -> None:
        if n_shards <= 0:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, entity_id: str) -> int:
        """The shard owning ``entity_id`` — stable across processes."""
        return zlib.crc32(entity_id.encode("utf-8")) % self.n_shards


class DirectoryShard:
    """One shard: the records for the entity ids hashed to it."""

    __slots__ = ("index", "records")

    def __init__(self, index: int) -> None:
        self.index = index
        self.records: dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.records)


class ShardedEntityDirectory:
    """Entity id -> record with O(1) lookup through a shard map.

    The record type is opaque: the core directory stores routing
    policies, the scale harness stores host groups.  ``register`` is
    write-once per id (a second registration is a deployment bug, not a
    lifecycle event) and ``lookup`` returns ``None`` for unknown ids so
    misrouted requests fail fast at the caller.
    """

    def __init__(self, n_shards: int = 64) -> None:
        self.shard_map = ShardMap(n_shards)
        self._shards = [DirectoryShard(index) for index in range(n_shards)]
        self.lookups = 0
        #: Bumped by every effective ``register`` / ``unregister``: what a
        #: :class:`RouteTable` compares to know its routes are current.
        self.version = 0

    # -- registration ------------------------------------------------------

    def register(self, entity_id: str, record: Any) -> None:
        shard = self._shards[self.shard_map.shard_of(entity_id)]
        if entity_id in shard.records:
            raise ValueError(f"entity {entity_id!r} already registered")
        shard.records[entity_id] = record
        self.version += 1

    def unregister(self, entity_id: str) -> None:
        shard = self._shards[self.shard_map.shard_of(entity_id)]
        if shard.records.pop(entity_id, None) is not None:
            self.version += 1

    # -- lookup ------------------------------------------------------------

    def lookup(self, entity_id: str) -> Any | None:
        self.lookups += 1
        return self._shards[self.shard_map.shard_of(entity_id)].records.get(
            entity_id
        )

    def __contains__(self, entity_id: str) -> bool:
        return (
            entity_id
            in self._shards[self.shard_map.shard_of(entity_id)].records
        )

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # -- lifecycle / introspection ----------------------------------------

    def shard(self, index: int) -> DirectoryShard:
        return self._shards[index]

    def shards(self) -> Iterator[DirectoryShard]:
        return iter(self._shards)

    def shard_sizes(self) -> list[int]:
        return [len(shard) for shard in self._shards]

    def entities(self) -> list[str]:
        """All registered ids, sorted (diagnostics; O(n), not a hot path)."""
        out: list[str] = []
        for shard in self._shards:
            out.extend(shard.records)
        out.sort()
        return out

    def items(self) -> Iterator[tuple[str, Any]]:
        for shard in self._shards:
            yield from shard.records.items()


class RouteTable:
    """Dense ``row -> record`` routes, resolved per entity, not per request.

    ``ids[row]`` goes through ``directory.lookup`` when the table is built
    and again once the directory's ``version`` has moved: every reader
    shares one resolution and pays one integer compare to stay current.
    """

    __slots__ = ("directory", "ids", "version", "_records")

    def __init__(self, directory: ShardedEntityDirectory, ids: list[str]) -> None:
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
