"""Multi-Paxos replicated log (substrate for MultiPaxSys)."""

from repro.baselines.paxos.replica import PaxosReplica

__all__ = ["PaxosReplica"]
