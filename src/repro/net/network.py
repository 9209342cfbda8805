"""The simulated geo-distributed network.

Delivery semantics match the paper's asynchronous model (§3.1): messages
may be delayed (base latency + lognormal jitter), dropped (configurable
loss probability), and reordered (a consequence of jitter).  Crashed
endpoints receive nothing; partitions block cross-group traffic.

This class is the **sim implementation** of the
:class:`repro.net.transport.Transport` protocol; the live substrates in
:mod:`repro.runtime` implement the same surface over asyncio queues and
localhost sockets.  Conformance is structural — nothing here changed
when the abstraction was extracted, so sim runs stay bit-for-bit
deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.net import codec
from repro.net.message import Message
from repro.net.partition import PartitionController
from repro.net.regions import Region, one_way_latency
from repro.obs.bus import emit_message_event, trace_id_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Clock
    from repro.obs.bus import EventBus


class Endpoint(Protocol):
    """Anything attachable to the network."""

    name: str
    crashed: bool

    def on_message(self, message: Message) -> None:  # pragma: no cover
        ...


@dataclass
class NetworkConfig:
    """Tunable delivery behaviour.

    ``jitter_sigma`` is the sigma of a lognormal multiplier applied to the
    base one-way latency (mu chosen so the multiplier's median is 1).
    ``loss_probability`` applies independently per message.
    """

    jitter_sigma: float = 0.08
    loss_probability: float = 0.0
    #: Extra fixed per-message overhead (serialization, kernel) in seconds.
    processing_overhead: float = 0.0001


class Network:
    """Routes messages between named endpoints with geo latencies."""

    def __init__(self, kernel: Clock, config: NetworkConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config or NetworkConfig()
        self.partitions = PartitionController()
        self._endpoints: dict[str, Endpoint] = {}
        self._regions: dict[str, Region] = {}
        self._rng = kernel.rng.stream("network")
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        #: Per-payload-type counters (parity with the live transports).
        self.sent_by_type: Counter[str] = Counter()
        self.delivered_by_type: Counter[str] = Counter()
        #: Optional tap for tracing: called with every message at send time.
        self.trace: Callable[[Message], None] | None = None
        #: Telemetry bus; installed by the harness when tracing is on.
        self.obs: EventBus | None = None
        #: Optional :class:`repro.obs.flow.FlowTracker`.  The sim path
        #: passes payloads by reference and never serializes, so byte
        #: accounting *encodes on demand* — only behind this seam.
        self.flow = None

    # -- registration -----------------------------------------------------

    def attach(self, endpoint: Endpoint, region: Region) -> None:
        if endpoint.name in self._endpoints:
            raise ValueError(f"endpoint {endpoint.name!r} already attached")
        self._endpoints[endpoint.name] = endpoint
        self._regions[endpoint.name] = region

    def detach(self, name: str) -> None:
        self._endpoints.pop(name, None)
        self._regions.pop(name, None)

    def region_of(self, name: str) -> Region:
        return self._regions[name]

    def endpoints(self) -> list[str]:
        return list(self._endpoints)

    # -- sending ----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst``; best-effort delivery."""
        self.messages_sent += 1
        message = Message(src=src, dst=dst, payload=payload, sent_at=self.kernel.now)
        self.sent_by_type[message.kind] += 1
        obs = self.obs
        if obs is not None:
            message.trace_id = trace_id_of(payload)
        flow = self.flow
        extra: dict[str, Any] = {}
        if flow is not None:
            # Encode the envelope exactly as the TCP framing would (the
            # trace id is already stamped, matching the live order) so
            # sim byte baselines transfer to the socket substrate.
            payload_bytes = len(codec.encode(message))
            frame_bytes = payload_bytes + codec.FRAME_HEADER.size
            src_region = self._regions.get(src)
            dst_region = self._regions.get(dst)
            flow.record_send(
                message.kind,
                payload_bytes,
                frame_bytes,
                src_region.value if src_region is not None else "",
                dst_region.value if dst_region is not None else "",
            )
            extra = {"bytes": payload_bytes, "frame_bytes": frame_bytes}
        if obs is not None:
            self._emit_msg(obs, "msg.send", message, **extra)
        if self.trace is not None:
            self.trace(message)
        if dst not in self._endpoints:
            self._drop(message, "unknown-endpoint")
            return
        if not self.partitions.can_communicate(src, dst):
            self._drop(message, "partitioned")
            return
        if self.config.loss_probability > 0 and (
            self._rng.random() < self.config.loss_probability
        ):
            self._drop(message, "loss")
            return
        delay = self._sample_latency(src, dst)
        self.kernel.schedule(delay, self._deliver, message)

    def broadcast(self, src: str, dsts: list[str], payload: Any) -> None:
        for dst in dsts:
            self.send(src, dst, payload)

    def latency(self, a: str, b: str) -> float:
        """Base one-way latency between two attached endpoints (seconds)."""
        return one_way_latency(self._regions[a], self._regions[b])

    # -- internals ----------------------------------------------------------

    def _sample_latency(self, src: str, dst: str) -> float:
        base = one_way_latency(self._regions[src], self._regions[dst])
        sigma = self.config.jitter_sigma
        if sigma > 0:
            # Lognormal multiplier with median 1: long-tailed, never negative.
            base *= math.exp(self._rng.gauss(0.0, sigma))
        return base + self.config.processing_overhead

    def _deliver(self, message: Message) -> None:
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None or endpoint.crashed:
            self._drop(message, "endpoint-down")
            return
        # Partitions that arise while a message is in flight still cut it off:
        # the check at delivery time models links going dark mid-flight.
        if not self.partitions.can_communicate(message.src, message.dst):
            self._drop(message, "partitioned")
            return
        message.delivered_at = self.kernel.now
        self.messages_delivered += 1
        self.delivered_by_type[message.kind] += 1
        obs = self.obs
        if obs is not None:
            self._emit_msg(
                obs,
                "msg.deliver",
                message,
                latency=message.delivered_at - message.sent_at,
            )
        endpoint.on_message(message)

    def _drop(self, message: Message, reason: str) -> None:
        self.messages_dropped += 1
        obs = self.obs
        if obs is not None:
            self._emit_msg(obs, "msg.drop", message, reason=reason)

    def _emit_msg(self, obs, etype: str, message: Message, **extra: Any) -> None:
        emit_message_event(obs, etype, message, self._regions, **extra)
