"""Simulated stable storage.

The paper assumes a crashed site "reconstructs its previous state
(typically stored on stable storage)" (§3.1).  This package provides that
substrate: a per-actor keyed recovery log that survives crashes, plus an
indexed write-ahead log used by the Paxos/Raft baselines.
"""

from repro.storage.recovery import RecoveryWal
from repro.storage.wal import WriteAheadLog

__all__ = ["RecoveryWal", "WriteAheadLog"]
