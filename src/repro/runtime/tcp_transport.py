"""Live transport over real localhost TCP sockets.

Every attached endpoint gets its own ``asyncio`` TCP server on
127.0.0.1 (ephemeral port).  A send serializes the full
:class:`~repro.net.message.Message` envelope with
:mod:`repro.net.codec` into a length-prefixed frame and ships it over a
per-destination connection — so protocol dataclasses genuinely
round-trip bytes, the property the sim (object references) and the
in-process asyncio transport (queues) never exercise.

Delivery is at-least-once: a writer that loses its connection reopens it
and resends the frame it could not confirm, which can duplicate the
envelope.  Receivers deduplicate by ``Message.msg_id`` (see
``SamyaSite.on_message``), keeping effects exactly-once over a lossy
real channel.
"""

from __future__ import annotations

import asyncio
import random

from repro.net import codec
from repro.net.message import Message
from repro.runtime.asyncio_transport import DelayModel, LiveTransport, ZeroDelayModel
from repro.runtime.clock import LiveClock

#: How long a writer waits for the destination's server address before
#: giving the frame up as undeliverable (startup races only).
_ADDRESS_WAIT = 5.0
_RECONNECT_BACKOFF = 0.05
#: Backoff is exponential (base * 2^attempt) capped here, with +-50%
#: jitter so N writers retrying a dead peer do not reconnect in phase.
_BACKOFF_CAP = 1.0
_MAX_SEND_ATTEMPTS = 5
#: A write+drain slower than this counts as a failed attempt.
_SEND_TIMEOUT = 2.0
#: Consecutive undeliverable frames to one peer before the circuit
#: opens; while open, frames to that peer fail fast instead of holding
#: the writer (and every queued frame behind it) through full retries.
_CIRCUIT_THRESHOLD = 3
#: How long an open circuit waits before probing with one frame.
_CIRCUIT_COOLDOWN = 1.0
#: Cap on a per-peer out-queue.  A dead or slow peer must apply
#: backpressure (accounted drops), not grow an unbounded asyncio.Queue
#: until the process swaps.
_MAX_OUT_QUEUE = 1024


class _PeerCircuit:
    """Per-destination circuit-breaker state for the write loop."""

    __slots__ = ("state", "failures", "opened_at")

    def __init__(self) -> None:
        self.state = "closed"  # closed | open | half-open
        self.failures = 0
        self.opened_at = 0.0


class TcpTransport(LiveTransport):
    """Live :class:`repro.net.transport.Transport` over localhost sockets."""

    def __init__(
        self,
        clock: LiveClock,
        host: str = "127.0.0.1",
        delay_model: DelayModel | None = None,
        loss_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(
            clock,
            # Artificial extra delay before a frame is handed to the
            # socket; none by default — real sockets give real latency.
            delay_model or ZeroDelayModel(),
            loss_probability,
            random.Random(f"tcp-transport:{seed}"),
        )
        self.host = host
        self._servers: dict[str, asyncio.AbstractServer] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        self._out_queues: dict[str, asyncio.Queue] = {}
        self._writers: dict[str, asyncio.Task] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        self._circuits: dict[str, _PeerCircuit] = {}
        self._closing = False
        #: Tunables, instance-level so tests can tighten them.
        self.address_wait = _ADDRESS_WAIT
        self.max_send_attempts = _MAX_SEND_ATTEMPTS
        self.backoff_base = _RECONNECT_BACKOFF
        self.backoff_cap = _BACKOFF_CAP
        self.send_timeout = _SEND_TIMEOUT
        self.circuit_threshold = _CIRCUIT_THRESHOLD
        self.circuit_cooldown = _CIRCUIT_COOLDOWN
        self.max_out_queue = _MAX_OUT_QUEUE
        #: Frames rejected at a full per-peer out-queue.
        self.backpressure_drops = 0
        #: Frames rewritten after a reconnect (possible duplicates).
        self.frames_resent = 0
        #: Write+drain attempts that exceeded ``send_timeout``.
        self.send_timeouts = 0

    def instrument(self, instruments) -> None:
        super().instrument(instruments)
        # Frames genuinely serialize only here, so this substrate also
        # times the codec; its recorder is module-global, which is why
        # Instruments.close() must run however the run ends.
        codec.set_perf_recorder(instruments.perf)

    def _detached(self, name: str) -> None:
        server = self._servers.pop(name, None)
        if server is not None:
            server.close()
        self._addresses.pop(name, None)

    async def start(self) -> None:
        """Bind one TCP server per attached endpoint (ephemeral ports)."""
        for name in self._endpoints:
            if name in self._servers:
                continue
            server = await asyncio.start_server(self._on_connection, self.host, 0)
            self._servers[name] = server
            sockname = server.sockets[0].getsockname()
            self._addresses[name] = (sockname[0], sockname[1])

    # -- sending ----------------------------------------------------------

    def _carry(self, message: Message, frame: bytes | None) -> None:
        # Framed at send time, delayed or not: the core's frame is reused
        # when the flow plane already encoded the envelope.
        if frame is None:
            frame = codec.encode_frame(message)
        self._after_delay(message, self._enqueue_frame, message, frame)

    def _enqueue_frame(self, message: Message, frame: bytes) -> None:
        if self._closing:
            self._drop(message, "transport-closed")
            return
        dst = message.dst
        queue = self._out_queues.get(dst)
        if queue is None:
            queue = asyncio.Queue()
            self._out_queues[dst] = queue
            loop = asyncio.get_running_loop()
            self._writers[dst] = loop.create_task(
                self._write_loop(dst, queue), name=f"tcp-writer:{dst}"
            )
        if queue.qsize() >= self.max_out_queue:
            # Backpressure: reject loudly (accounted drop + trace event)
            # instead of letting a dead peer's queue grow without bound.
            self.backpressure_drops += 1
            flow = self.flow
            if flow is not None:
                gauge = flow.queue(f"tcp.out.{dst}")
                gauge.drop()
                gauge.observe(queue.qsize())
            obs = self.obs
            if obs is not None:
                obs.emit(
                    "flow.backpressure",
                    queue=f"tcp.out.{dst}",
                    depth=queue.qsize(),
                    msg_type=message.kind,
                )
            self._drop(message, "backpressure")
            return
        queue.put_nowait((message, frame))
        if self.flow is not None:
            self.flow.queue(f"tcp.out.{dst}").enqueue(queue.qsize())

    async def _write_loop(self, dst: str, queue: asyncio.Queue) -> None:
        """Drain ``queue`` into one connection to ``dst``, reconnecting
        (and resending the unconfirmed frame) on failure.

        Every undeliverable frame is *accounted*: a ``msg.drop`` trace
        event plus the dropped counter, so the auditor's
        sends-vs-deliveries invariant balances even when a peer is
        unreachable.  A per-peer circuit breaker fails fast once a peer
        looks dead and probes it again after a cooldown, surfacing each
        transition as a ``fault.circuit`` trace event.
        """
        writer: asyncio.StreamWriter | None = None
        circuit = self._circuits.setdefault(dst, _PeerCircuit())
        try:
            # ``_closing`` is checked as well as waiting to be cancelled:
            # on Python 3.11 a cancel that lands in the iteration
            # ``wait_for(drain())`` completes is swallowed by wait_for.
            while not self._closing:
                message, frame = await queue.get()
                if self.flow is not None:
                    self.flow.queue(f"tcp.out.{dst}").dequeue(queue.qsize())
                if circuit.state == "open":
                    if self.clock.now - circuit.opened_at < self.circuit_cooldown:
                        self._drop(message, "circuit-open")
                        continue
                    self._set_circuit(dst, circuit, "half-open")
                attempts = 1 if circuit.state == "half-open" else self.max_send_attempts
                reason = None
                for attempt in range(attempts):
                    try:
                        if writer is None:
                            writer = await self._connect(dst)
                            if writer is None:
                                reason = "connect-failed"
                                break
                        writer.write(frame)
                        await asyncio.wait_for(writer.drain(), self.send_timeout)
                        reason = None
                        break
                    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                        if isinstance(exc, asyncio.TimeoutError):
                            self.send_timeouts += 1
                        reason = "retry-exhausted"
                        if writer is not None:
                            writer.close()
                            writer = None
                        self.frames_resent += 1
                        await asyncio.sleep(self._backoff(attempt))
                if reason is None:
                    if circuit.state != "closed":
                        self._set_circuit(dst, circuit, "closed")
                    circuit.failures = 0
                    continue
                self._drop(message, reason)
                circuit.failures += 1
                if circuit.state == "half-open" or (
                    circuit.state == "closed"
                    and circuit.failures >= self.circuit_threshold
                ):
                    circuit.opened_at = self.clock.now
                    self._set_circuit(dst, circuit, "open")
        finally:
            if writer is not None:
                writer.close()

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return base * (0.5 + self._rng.random())

    def _set_circuit(self, dst: str, circuit: _PeerCircuit, state: str) -> None:
        circuit.state = state
        obs = self.obs
        if obs is not None:
            obs.emit("fault.circuit", peer=dst, state=state, failures=circuit.failures)

    async def _connect(self, dst: str) -> asyncio.StreamWriter | None:
        waited = 0.0
        while dst not in self._addresses:
            if waited >= self.address_wait or dst not in self._endpoints:
                return None
            await asyncio.sleep(0.01)
            waited += 0.01
        host, port = self._addresses[dst]
        _reader, writer = await asyncio.open_connection(host, port)
        return writer

    # -- receiving ---------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        try:
            while True:
                header = await reader.readexactly(codec.FRAME_HEADER.size)
                length = codec.decode_frame_length(header)
                body = await reader.readexactly(length)
                message = codec.decode(body)
                self._deliver(message)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Only aclose() cancels readers.  Returning (instead of
            # re-raising) keeps asyncio.streams' done-callback from
            # dumping the cancellation to the loop's exception handler.
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced by launcher
            self.errors.append(exc)
        finally:
            writer.close()

    # -- teardown ----------------------------------------------------------

    async def aclose(self) -> None:
        """Stop writers, readers and servers, whatever is in flight.

        Sends that arrive from now on, and every frame still queued
        behind a writer, are accounted as ``transport-closed`` drops.
        """
        self._closing = True
        for task in self._writers.values():
            task.cancel()
        if self._writers:
            await asyncio.gather(*self._writers.values(), return_exceptions=True)
        self._writers.clear()
        for queue in self._out_queues.values():
            while not queue.empty():
                message, _frame = queue.get_nowait()
                self._drop(message, "transport-closed")
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
