"""In-process live transport: one asyncio queue + pump coroutine per node.

The cheapest way to run the protocol stack as *real* concurrent work:
every attached endpoint gets an ``asyncio.Queue`` and a pump task that
pops envelopes and dispatches ``on_message`` — so nodes interleave on
the loop instead of inside a discrete-event queue.  WAN shape comes from
an injectable delay model that reuses the :mod:`repro.net.regions`
latency matrix, scaled so short live runs still see geo ratios.

Accounting, admission and delivery are the shared
:class:`~repro.net.transport.TransportCore`'s, so semantics are the sim
:class:`~repro.net.network.Network`'s by construction: unknown or
crashed destinations drop, partitions cut traffic (checked at send and
again at delivery), loss is sampled per message.
:class:`LiveTransport` adds what the two wall-clock substrates share on
top of that; this module's own part is the queue and the pump.
"""

from __future__ import annotations

import asyncio
import math
import random
from time import perf_counter
from typing import Any, Callable, Protocol

from repro.net.message import Message
from repro.net.regions import Region, one_way_latency
from repro.net.transport import Endpoint, TransportCore
from repro.runtime.clock import LiveClock


class DelayModel(Protocol):
    """Samples the artificial one-way delay for a message."""

    def sample(self, src: Region, dst: Region, rng: random.Random) -> float:
        ...  # pragma: no cover


class ZeroDelayModel:
    """No artificial delay — queues and the loop give the only latency."""

    def sample(self, src: Region, dst: Region, rng: random.Random) -> float:
        return 0.0


class GeoDelayModel:
    """The sim network's latency model, scaled for wall-clock runs.

    ``scale`` compresses the real WAN figures (a 0.05 scale turns the
    155 ms US<->Asia RTT into ~8 ms) so live smoke runs keep the paper's
    local-vs-WAN ratios without taking minutes per redistribution.
    """

    def __init__(
        self, scale: float = 1.0, jitter_sigma: float = 0.08, overhead: float = 0.0
    ) -> None:
        self.scale = scale
        self.jitter_sigma = jitter_sigma
        self.overhead = overhead

    def sample(self, src: Region, dst: Region, rng: random.Random) -> float:
        base = one_way_latency(src, dst) * self.scale
        if self.jitter_sigma > 0:
            base *= math.exp(rng.gauss(0.0, self.jitter_sigma))
        return base + self.overhead


class LiveTransport(TransportCore):
    """What the wall-clock substrates share beyond the core: an
    injectable artificial delay, ``perf``-timed send and receive, and
    capture of handler errors (a raise inside a pump or reader task
    would otherwise vanish with the task)."""

    def __init__(
        self,
        clock: LiveClock,
        delay_model: DelayModel,
        loss_probability: float,
        rng: random.Random,
    ) -> None:
        super().__init__(clock, loss_probability, rng)
        self.delay_model = delay_model
        #: Wall-clock recorder (:class:`repro.obs.perf.PerfRecorder`) or
        #: ``None``; when set, send submission (framing included) and
        #: receive dispatch are timed per payload type.
        self.perf = None
        #: Exceptions raised by ``on_message`` handlers, oldest first.
        self.errors: list[BaseException] = []

    def instrument(self, instruments) -> None:
        super().instrument(instruments)
        self.perf = instruments.perf

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst``; best-effort delivery."""
        if self.perf is None:
            super().send(src, dst, payload)
            return
        start = perf_counter()
        super().send(src, dst, payload)
        self.perf.observe("transport.send", type(payload).__name__, perf_counter() - start)

    def _after_delay(self, message: Message, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` once ``message``'s artificial delay has passed."""
        delay = self.delay_model.sample(
            self._regions[message.src], self._regions[message.dst], self._rng
        )
        if delay <= 0:
            callback(*args)
        else:
            self.clock.schedule(delay, callback, *args)

    def latency(self, a: str, b: str) -> float:
        """Base artificial one-way delay between two attached endpoints."""
        return self.delay_model.sample(self._regions[a], self._regions[b], random.Random(0))

    def _hand_over(self, endpoint: Endpoint, message: Message) -> None:
        try:
            if self.perf is None:
                endpoint.on_message(message)
            else:
                start = perf_counter()
                endpoint.on_message(message)
                self.perf.observe("transport.recv", message.kind, perf_counter() - start)
        except Exception as exc:  # surfaced by the launcher via raise_errors
            self.errors.append(exc)

    def raise_errors(self) -> None:
        if self.errors:
            raise self.errors[0]


class AsyncioTransport(LiveTransport):
    """Live :class:`repro.net.transport.Transport` over in-process queues."""

    def __init__(
        self,
        clock: LiveClock,
        delay_model: DelayModel | None = None,
        loss_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(
            clock,
            delay_model or GeoDelayModel(scale=0.05),
            loss_probability,
            random.Random(f"asyncio-transport:{seed}"),
        )
        self._queues: dict[str, asyncio.Queue] = {}
        self._pumps: dict[str, asyncio.Task] = {}

    def _attached(self, name: str) -> None:
        self._queues[name] = asyncio.Queue()
        self._maybe_spawn_pumps()

    def _detached(self, name: str) -> None:
        self._queues.pop(name, None)
        task = self._pumps.pop(name, None)
        if task is not None:
            task.cancel()

    def _maybe_spawn_pumps(self) -> None:
        """Start pump tasks for any endpoint that lacks one.

        Attach may legally happen before the event loop runs (cluster
        builders are synchronous); pumps are then spawned by
        :meth:`start`.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        for name, queue in self._queues.items():
            if name not in self._pumps:
                self._pumps[name] = loop.create_task(
                    self._pump(name, queue), name=f"pump:{name}"
                )

    async def start(self) -> None:
        self._maybe_spawn_pumps()

    def _carry(self, message: Message, frame: bytes | None) -> None:
        self._after_delay(message, self._enqueue, message)

    def _enqueue(self, message: Message) -> None:
        queue = self._queues.get(message.dst)
        if queue is None:
            self._drop(message, "unknown-endpoint")
            return
        queue.put_nowait(message)
        if self.flow is not None:
            self.flow.queue(f"asyncio.in.{message.dst}").enqueue(queue.qsize())

    async def _pump(self, name: str, queue: asyncio.Queue) -> None:
        while True:
            message = await queue.get()
            if self.flow is not None:
                self.flow.queue(f"asyncio.in.{name}").dequeue(queue.qsize())
            self._deliver(message)

    async def aclose(self) -> None:
        for task in self._pumps.values():
            task.cancel()
        if self._pumps:
            await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
