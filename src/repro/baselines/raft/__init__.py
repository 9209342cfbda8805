"""Raft replicated log (substrate for the CockroachDB-like baseline)."""

from repro.baselines.raft.node import RaftNode

__all__ = ["RaftNode"]
