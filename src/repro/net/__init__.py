"""Geo-distributed network substrate.

Models what the paper's GCP deployment provides: regions with realistic
inter-region latencies, per-message jitter, message loss, crash faults,
and network partitions.  Every system (Samya, MultiPaxSys, the Raft
system, Demarcation/Escrow) runs over this same substrate, so relative
comparisons between them reflect protocol behaviour, not substrate
differences.
"""

from repro.net.regions import Region, one_way_latency, rtt
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.net.partition import PartitionController
from repro.net.transport import Clock, Endpoint, Transport

__all__ = [
    "Region",
    "one_way_latency",
    "rtt",
    "Message",
    "Endpoint",
    "Network",
    "NetworkConfig",
    "PartitionController",
    "Clock",
    "Transport",
]
