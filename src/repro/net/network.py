"""The simulated geo-distributed network.

Delivery semantics match the paper's asynchronous model (§3.1): messages
may be delayed (base latency + lognormal jitter), dropped (configurable
loss probability), and reordered (a consequence of jitter).  Crashed
endpoints receive nothing; partitions block cross-group traffic.

This class is the **sim substrate** of the message plane: accounting,
admission and delivery are :class:`repro.net.transport.TransportCore`'s,
shared with the live substrates in :mod:`repro.runtime`; what is the
sim's own is that an admitted envelope travels as one kernel event
scheduled a sampled latency ahead.  The loss draw (in the core) and then
the latency draw (here) come off the kernel's ``network`` stream, in
that order, so sim runs stay bit-for-bit deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.net.message import Message
from repro.net.regions import one_way_latency
from repro.net.transport import Clock, TransportCore
from repro.sim.kernel import Kernel

#: Extra fixed per-message overhead (serialization, kernel) in seconds.
PROCESSING_OVERHEAD = 0.0001


@dataclass
class NetworkConfig:
    """Tunable delivery behaviour.

    ``jitter_sigma`` is the sigma of a lognormal multiplier applied to the
    base one-way latency (mu chosen so the multiplier's median is 1).
    ``loss_probability`` applies independently per message.
    """

    jitter_sigma: float = 0.08
    loss_probability: float = 0.0


class Network(TransportCore):
    """Routes messages between named endpoints with geo latencies."""

    def __init__(self, kernel: Clock, config: NetworkConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config or NetworkConfig()
        super().__init__(
            kernel, self.config.loss_probability, kernel.rng.stream("network")
        )

    def _carry(self, message: Message, frame: bytes | None) -> None:
        base = one_way_latency(self._regions[message.src], self._regions[message.dst])
        sigma = self.config.jitter_sigma
        if sigma > 0:
            # Lognormal multiplier with median 1: long-tailed, never negative.
            base *= math.exp(self._rng.gauss(0.0, sigma))
        self.kernel.schedule(base + PROCESSING_OVERHEAD, self._deliver, message)

    def latency(self, a: str, b: str) -> float:
        """Base one-way latency between two attached endpoints (seconds)."""
        return one_way_latency(self._regions[a], self._regions[b])


def sim_substrate(seed: int, **network_config) -> tuple[Kernel, Network]:
    """A fresh kernel and the network on it: the sim substrate every
    harness starts from (keywords are :class:`NetworkConfig` fields)."""
    kernel = Kernel(seed)
    return kernel, Network(kernel, NetworkConfig(**network_config))
