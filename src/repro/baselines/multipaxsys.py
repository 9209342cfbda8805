"""MultiPaxSys: the Spanner-like baseline deployment (§5).

Five Paxos replicas, three of them in US regions (the paper mimics
Spanner's practice of placing a majority close together for fast
replication, §5.2).  Clients in the five Samya regions all route to the
current leader, where conflicting transactions serialize.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.paxos.replica import PaxosReplica
from repro.baselines.statemachine import LogDeployment
from repro.core.entity import Entity
from repro.net.transport import Clock, Transport
from repro.net.regions import MULTIPAXSYS_REGIONS, Region


class MultiPaxSysCluster(LogDeployment):
    """A wired MultiPaxSys deployment with per-region app managers."""

    replica_class = PaxosReplica
    prefix = "paxos"

    def __init__(
        self,
        kernel: Clock,
        network: Transport,
        entity: Entity,
        client_regions: Sequence[Region],
        replica_regions: Sequence[Region] = MULTIPAXSYS_REGIONS,
    ) -> None:
        super().__init__(kernel, network, entity, client_regions, replica_regions)
