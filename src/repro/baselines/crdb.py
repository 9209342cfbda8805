"""CockroachDB-like deployment: Raft replicas spread over the five paper
regions (CRDB's default placement spreads replicas; unlike MultiPaxSys it
gets no US-heavy majority, which is why the paper measures it slightly
slower — Table 2b / Fig. 3b)."""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.raft.node import RaftNode
from repro.baselines.statemachine import LogDeployment
from repro.core.entity import Entity
from repro.net.transport import Clock, Transport
from repro.net.regions import PAPER_REGIONS, Region


class CockroachLikeCluster(LogDeployment):
    """A wired Raft/leaseholder deployment with per-region app managers."""

    replica_class = RaftNode
    prefix = "raft"

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        entity: Entity,
        client_regions: Sequence[Region],
        replica_regions: Sequence[Region] = PAPER_REGIONS,
    ) -> None:
        super().__init__(kernel, network, entity, client_regions, replica_regions)
