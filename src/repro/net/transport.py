"""The Transport/Clock abstraction every component runs against.

Historically each actor took a concrete ``repro.sim.kernel.Kernel`` and
``repro.net.network.Network``.  These protocols formalize exactly what
the call sites in ``core/site.py``, ``core/avantan/*``,
``core/app_manager.py``, and ``baselines/*`` actually use, so the same
*unchanged* protocol code can run on interchangeable substrates:

- **sim** — :class:`repro.sim.kernel.Kernel` (clock) +
  :class:`repro.net.network.Network` (transport): the deterministic
  discrete-event substrate every benchmark runs on.
- **live** — :class:`repro.runtime.clock.LiveClock` +
  :class:`repro.runtime.asyncio_transport.AsyncioTransport` (in-process
  coroutines and queues) or
  :class:`repro.runtime.tcp_transport.TcpTransport` (localhost sockets,
  length-prefixed frames via :mod:`repro.net.codec`).

The protocols are structural (:class:`typing.Protocol`).  The message
plane behind them is not three implementations but one:
:class:`TransportCore` owns everything the paper's §3.1 network model
says about a message (accounting, admission, delivery) and a substrate
subclass supplies only how an admitted envelope travels;
:class:`TransportDecorator` is the one base under the layers that wrap
a transport (fault injection, batching).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Protocol, runtime_checkable

from repro.net import codec
from repro.net.message import Message
from repro.net.partition import PartitionController
from repro.net.regions import Region
from repro.obs.bus import EventBus, emit_message_event, trace_id_of


@runtime_checkable
class ScheduledEvent(Protocol):
    """A cancellable handle returned by :meth:`Clock.schedule`."""

    cancelled: bool

    def cancel(self) -> None: ...  # pragma: no cover


class RngProvider(Protocol):
    """Named deterministic random streams (``repro.sim.rng.RngRegistry``)."""

    def stream(self, name: str): ...  # pragma: no cover


@runtime_checkable
class Clock(Protocol):
    """Time + deferred execution, as actors consume it.

    ``now`` is seconds on the substrate's clock: simulated seconds under
    the event kernel, wall-clock seconds since start under the live
    runtime.  Actors never read host time directly, which is what lets
    one code base run on both.
    """

    now: float
    rng: RngProvider

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent: ...  # pragma: no cover

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent: ...  # pragma: no cover


@runtime_checkable
class Endpoint(Protocol):
    """Anything attachable to a transport."""

    name: str
    crashed: bool

    def on_message(self, message: Message) -> None: ...  # pragma: no cover


@runtime_checkable
class Transport(Protocol):
    """Message delivery between named endpoints.

    Delivery is best-effort and asynchronous on every implementation:
    messages may be delayed, dropped, and reordered; crashed endpoints
    receive nothing; ``partitions`` blocks cross-group traffic.
    :class:`TransportCore` enforces these for every substrate; the sim
    :class:`~repro.net.network.Network` adds modelled latency, the live
    transports real queues and sockets (plus an injectable delay model
    reusing :mod:`repro.net.regions`).
    """

    partitions: PartitionController
    messages_sent: int
    messages_dropped: int
    messages_delivered: int

    def attach(self, endpoint: Endpoint, region: Region) -> None: ...  # pragma: no cover

    def detach(self, name: str) -> None: ...  # pragma: no cover

    def send(self, src: str, dst: str, payload: Any) -> None: ...  # pragma: no cover

    def broadcast(self, src: str, dsts: list[str], payload: Any) -> None: ...  # pragma: no cover

    def region_of(self, name: str) -> Region: ...  # pragma: no cover

    def endpoints(self) -> list[str]: ...  # pragma: no cover

    def latency(self, a: str, b: str) -> float: ...  # pragma: no cover


class TransportCore:
    """The message plane shared by every substrate.

    Owns the endpoint/region registry, the counters, the ``obs`` /
    ``flow`` / ``trace`` seams and the whole of the §3.1 model: a send
    mints and accounts the envelope, then admits it or drops it
    (unknown endpoint, partition, sampled loss); a delivery re-checks
    that the endpoint is up and the link uncut, stamps and counts the
    envelope, and hands it over.  A substrate subclass supplies
    :meth:`_carry` — how an admitted envelope gets from ``send`` to
    :meth:`_deliver` — and, when it keeps per-endpoint resources,
    :meth:`_attached` / :meth:`_detached`.
    """

    def __init__(self, clock: Clock, loss_probability: float, rng) -> None:
        self.clock = clock
        #: Applied independently per message, after the partition check.
        self.loss_probability = loss_probability
        self.partitions = PartitionController()
        self._rng = rng
        self._endpoints: dict[str, Endpoint] = {}
        self._regions: dict[str, Region] = {}
        #: Region names, for every ``msg.*`` event and flow record.
        self._region_names: dict[str, str] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        #: Per-payload-type counters, identical across substrates.
        self.sent_by_type: Counter[str] = Counter()
        self.delivered_by_type: Counter[str] = Counter()
        #: Optional tap for tracing: called with every message at send time.
        self.trace: Callable[[Message], None] | None = None
        self._obs: EventBus | None = None
        #: Optional :class:`repro.obs.flow.FlowTracker`; when set, every
        #: send is byte-accounted per type and per link.
        self.flow = None

    @property
    def obs(self) -> EventBus | None:
        """Telemetry bus; installed by the harness when tracing is on.

        Setting it wires the partition controller too, so
        ``fault.partition`` / ``fault.heal`` land in the same trace as
        the drops they cause.
        """
        return self._obs

    @obs.setter
    def obs(self, bus: EventBus | None) -> None:
        self._obs = bus
        self.partitions.obs = bus

    def instrument(self, instruments) -> None:
        """Take the bus and the flow tracker (either may be ``None``)
        from a :class:`~repro.obs.instruments.Instruments` value."""
        self.obs = instruments.bus
        self.flow = instruments.flow

    # -- registration -----------------------------------------------------

    def attach(self, endpoint: Endpoint, region: Region) -> None:
        if endpoint.name in self._endpoints:
            raise ValueError(f"endpoint {endpoint.name!r} already attached")
        self._endpoints[endpoint.name] = endpoint
        self._regions[endpoint.name] = region
        self._region_names[endpoint.name] = region.value
        self._attached(endpoint.name)

    def detach(self, name: str) -> None:
        self._endpoints.pop(name, None)
        self._regions.pop(name, None)
        self._region_names.pop(name, None)
        self._detached(name)

    def _attached(self, name: str) -> None:
        """Substrate hook: allocate per-endpoint resources."""

    def _detached(self, name: str) -> None:
        """Substrate hook: release per-endpoint resources."""

    def region_of(self, name: str) -> Region:
        return self._regions[name]

    def endpoints(self) -> list[str]:
        return list(self._endpoints)

    # -- sending ----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst``; best-effort delivery."""
        self.messages_sent += 1
        message = Message(src=src, dst=dst, payload=payload, sent_at=self.clock.now)
        self.sent_by_type[message.kind] += 1
        obs = self._obs
        if obs is not None:
            # Stamped before framing so the trace id crosses the wire.
            message.trace_id = trace_id_of(payload)
        flow = self.flow
        frame: bytes | None = None
        extra: dict[str, Any] = {}
        if flow is not None:
            # Every substrate accounts the exact frame the TCP one ships
            # (trace id already stamped), so byte baselines transfer
            # between them.  The sim and asyncio substrates pass payloads
            # by reference and serialize nowhere but behind this seam.
            frame = codec.encode_frame(message)
            frame_bytes = len(frame)
            payload_bytes = frame_bytes - codec.FRAME_HEADER.size
            names = self._region_names
            flow.record_send(
                message.kind,
                payload_bytes,
                frame_bytes,
                names.get(src, ""),
                names.get(dst, ""),
            )
            extra = {"bytes": payload_bytes, "frame_bytes": frame_bytes}
        if obs is not None:
            emit_message_event(obs, "msg.send", message, self._region_names, **extra)
        if self.trace is not None:
            self.trace(message)
        if dst not in self._endpoints:
            self._drop(message, "unknown-endpoint")
            return
        if not self.partitions.can_communicate(src, dst):
            self._drop(message, "partitioned")
            return
        if self.loss_probability > 0 and self._rng.random() < self.loss_probability:
            self._drop(message, "loss")
            return
        self._carry(message, frame)

    def _carry(self, message: Message, frame: bytes | None) -> None:
        """Substrate hook: move an admitted envelope towards
        :meth:`_deliver`.  ``frame`` is its wire form when the flow
        plane already paid for the encoding, else ``None``."""
        raise NotImplementedError

    def broadcast(self, src: str, dsts: list[str], payload: Any) -> None:
        for dst in dsts:
            self.send(src, dst, payload)

    # -- delivery ---------------------------------------------------------

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
        message.delivered_at = self.clock.now
        self.messages_delivered += 1
        self.delivered_by_type[message.kind] += 1
        obs = self._obs
        if obs is not None:
            emit_message_event(
                obs,
                "msg.deliver",
                message,
                self._region_names,
                latency=message.delivered_at - message.sent_at,
            )
        self._hand_over(endpoint, message)

    def _hand_over(self, endpoint: Endpoint, message: Message) -> None:
        endpoint.on_message(message)

    def _drop(self, message: Message, reason: str) -> None:
        """Every undeliverable envelope is *accounted*: the counter plus
        a ``msg.drop`` trace event, so the auditor's sends-vs-deliveries
        invariant balances whatever the reason."""
        self.messages_dropped += 1
        obs = self._obs
        if obs is not None:
            emit_message_event(
                obs, "msg.drop", message, self._region_names, reason=reason
            )


class EndpointProxy:
    """What a :class:`TransportDecorator` attaches in an endpoint's place,
    so the layer sees every delivery before the endpoint does."""

    __slots__ = ("_endpoint", "_layer")

    def __init__(self, endpoint: Endpoint, layer: "TransportDecorator") -> None:
        self._endpoint = endpoint
        self._layer = layer

    @property
    def name(self) -> str:
        return self._endpoint.name

    @property
    def crashed(self) -> bool:
        return self._endpoint.crashed

    def on_message(self, message: Message) -> None:
        self._layer._receive(self._endpoint, message)


class TransportDecorator:
    """Base of the layers that wrap a transport and present the same
    surface: registration goes through an :class:`EndpointProxy`, the
    seams and the partition controller are the inner transport's, and
    the counters are the inner transport's plus whatever envelopes the
    layer accounted itself (``_own_*``, with ``_region_names`` to stamp their
    ``msg.*`` events; a layer that never mints an envelope leaves them
    at zero).  A subclass supplies ``send`` and :meth:`_receive`.
    """

    def __init__(self, inner, clock: Clock) -> None:
        self.inner = inner
        self.clock = clock
        self._region_names: dict[str, str] = {}
        self._own_sent = 0
        self._own_dropped = 0
        self._own_delivered = 0
        self._own_sent_by_type: Counter[str] = Counter()
        self._own_delivered_by_type: Counter[str] = Counter()

    # -- registration -----------------------------------------------------

    def attach(self, endpoint: Endpoint, region: Region) -> None:
        self._region_names[endpoint.name] = region.value
        self.inner.attach(EndpointProxy(endpoint, self), region)

    def detach(self, name: str) -> None:
        self._region_names.pop(name, None)
        self.inner.detach(name)

    def region_of(self, name: str) -> Region:
        return self.inner.region_of(name)

    def endpoints(self) -> list[str]:
        return self.inner.endpoints()

    def latency(self, a: str, b: str) -> float:
        return self.inner.latency(a, b)

    def send(self, src: str, dst: str, payload: Any) -> None:
        raise NotImplementedError

    def broadcast(self, src: str, dsts: list[str], payload: Any) -> None:
        for dst in dsts:
            self.send(src, dst, payload)

    def _receive(self, endpoint: Endpoint, message: Message) -> None:
        """A delivery from the inner transport, on its way to ``endpoint``."""
        raise NotImplementedError

    # -- delegated state --------------------------------------------------

    def instrument(self, instruments) -> None:
        self.inner.instrument(instruments)

    @property
    def partitions(self) -> PartitionController:
        return self.inner.partitions

    @property
    def obs(self):
        return self.inner.obs

    @property
    def trace(self):
        return self.inner.trace

    @trace.setter
    def trace(self, tap) -> None:
        self.inner.trace = tap

    @property
    def flow(self):
        return self.inner.flow

    @property
    def messages_sent(self) -> int:
        """Wire envelopes sent (what latency and sockets pay for)."""
        return self.inner.messages_sent + self._own_sent

    @property
    def messages_dropped(self) -> int:
        return self.inner.messages_dropped + self._own_dropped

    @property
    def messages_delivered(self) -> int:
        return self.inner.messages_delivered + self._own_delivered

    @property
    def sent_by_type(self) -> Counter:
        return self.inner.sent_by_type + self._own_sent_by_type

    @property
    def delivered_by_type(self) -> Counter:
        return self.inner.delivered_by_type + self._own_delivered_by_type
