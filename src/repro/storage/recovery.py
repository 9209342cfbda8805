"""Recovery write-ahead log: durable keyed records for crash recovery.

:class:`RecoveryWal` models the stable storage of a site (§3.1) as an
append-only log that is *replayed* on recovery.  A site recovers from
**what reached the log**, not from whatever its in-memory snapshot
happens to say, so a recovery path that skips a persist is observably
broken (the nemesis harness disables the log mid-run and the
conservation auditor catches the resulting stale restore — see
``tests/test_nemesis.py``).

Records are pickled on append and unpickled on replay — a serialized
write and read, so neither later mutation of the appended object nor of
a replayed one can change what is "on disk", and a value that cannot be
serialized fails at the append that tried to persist it.  ``compact()``
keeps only the newest record per key, the bound a real implementation
gets from checkpointing.
"""

from __future__ import annotations

import pickle
from typing import Any


class RecoveryWal:
    """Append-only keyed record log for one actor's durable state."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: When False, appends are silently discarded — the "broken
        #: recovery path" knob the nemesis harness uses to prove the
        #: auditor notices a site restoring stale state.
        self.enabled = True
        self._records: list[tuple[str, bytes]] = []
        self.appends = 0
        self.dropped_appends = 0
        self.replays = 0

    def __len__(self) -> int:
        return len(self._records)

    def append(self, key: str, value: Any) -> None:
        """Durably append one record (a serialized write)."""
        if not self.enabled:
            self.dropped_appends += 1
            return
        self.appends += 1
        self._records.append((key, pickle.dumps(value, -1)))

    def replay(self) -> dict[str, Any]:
        """Fold the log into its latest value per key (deserialized)."""
        self.replays += 1
        latest = dict(self._records)
        return {key: pickle.loads(record) for key, record in latest.items()}

    def compact(self) -> int:
        """Drop superseded records; returns how many were removed."""
        latest: dict[str, int] = {}
        for index, (key, _value) in enumerate(self._records):
            latest[key] = index
        keep = sorted(latest.values())
        removed = len(self._records) - len(keep)
        self._records = [self._records[index] for index in keep]
        return removed
