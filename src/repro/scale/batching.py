"""Round batching: one wire envelope per (src, dst) pair per kernel tick.

At scale, many entities' Avantan rounds overlap, and every round sends a
handful of small messages between the same few sites.  The per-message
cost (envelope, latency sampling, delivery event, and on a real socket a
frame) dominates.  The fix — the same one planet-scale SMR systems use —
is to coalesce: every payload sent to the same (src, dst) pair within
one kernel tick is buffered and flushed as a single
:class:`BatchEnvelope`; the receiving side unpacks it transparently so
per-entity protocol code never knows batching exists.

Correctness under faults rests on one invariant: each batched payload is
assigned its process-unique ``msg_id`` **at buffering time** and carried
inside the :class:`BatchItem`.  Unpacking reconstructs the inner
:class:`~repro.net.message.Message` with that stored id, so when the
fault layer re-delivers a whole envelope (a modeled retransmission), the
receiver's :class:`~repro.net.message.EnvelopeDedup` sees the same inner
ids again and absorbs the duplicate — dropping, duplicating, or
reordering a *batch* degrades to dropping, duplicating, or reordering
its members, which the protocol already tolerates.

:class:`BatchingTransport` is a
:class:`~repro.net.transport.TransportDecorator` over any transport
(compose it *outside* a :class:`~repro.faults.transport.FaultyTransport`
so injected faults hit whole envelopes).  Single-payload buffers flush
as the bare payload — no envelope overhead when there is nothing to
coalesce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net import codec
from repro.net.message import Message, next_msg_id
from repro.net.transport import TransportDecorator


@dataclass(frozen=True, slots=True)
class EntityScoped:
    """A protocol payload tagged with the entity it belongs to.

    A scale site hosts every entity's protocol instances behind one
    endpoint, so cross-site Avantan messages carry this wrapper for
    dispatch.  The inner payload is an unchanged ``core.messages`` type.
    """

    entity_id: str
    payload: Any


@dataclass(frozen=True, slots=True)
class BatchItem:
    """One coalesced payload plus the envelope id it would have used."""

    msg_id: int
    payload: Any


@dataclass(frozen=True, slots=True)
class BatchEnvelope:
    """All payloads for one (src, dst) pair from one kernel tick."""

    items: tuple[BatchItem, ...]


class BatchingTransport(TransportDecorator):
    """Transport decorator that coalesces same-tick, same-link sends.

    One zero-delay flush event serves every link: it is scheduled when
    the buffer map goes from empty to non-empty and sends each link's
    buffer in first-send order — the order per-link flush events would
    fire in.  The flush swaps in a fresh map first, so a send made while
    it runs schedules the next flush.
    """

    def __init__(self, inner, clock) -> None:
        super().__init__(inner, clock)
        #: (src, dst) -> buffered ``(msg_id, payload)`` pairs.
        self._buffers: dict[tuple[str, str], list[tuple[int, Any]]] = {}
        #: Payloads handed to ``send`` (the logical message count).
        self.logical_sent = 0
        #: Envelopes actually flushed with >= 2 items.
        self.batches_sent = 0
        #: Payloads that travelled inside those envelopes.
        self.batched_payloads = 0
        #: Single-payload flushes sent bare.
        self.passthrough_sent = 0
        self.batches_delivered = 0

    # -- sending -------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        self.logical_sent += 1
        buffers = self._buffers
        if not buffers:
            # Delay 0: the flush fires after every event already queued at
            # the current timestamp, so all same-tick sends to a link
            # land in one envelope.
            self.clock.schedule(0.0, self._flush)
        key = (src, dst)
        buffer = buffers.get(key)
        if buffer is None:
            buffers[key] = [(next_msg_id(), payload)]
        else:
            buffer.append((next_msg_id(), payload))

    def _flush(self) -> None:
        buffers = self._buffers
        self._buffers = {}
        flow = self.flow
        for (src, dst), items in buffers.items():
            if len(items) == 1:
                self.passthrough_sent += 1
                if flow is not None:
                    flow.record_passthrough()
                self.inner.send(src, dst, items[0][1])
                continue
            self.batches_sent += 1
            self.batched_payloads += len(items)
            envelope = BatchEnvelope(tuple([BatchItem(*item) for item in items]))
            if flow is not None:
                # Coalescing efficiency: what the envelope costs on the wire
                # versus what its payloads would have cost sent bare, each
                # in its own Message frame.  Explicit msg_ids keep the
                # global counter untouched, so a flow-enabled run stays
                # bit-identical to a disabled one.
                now = self.clock.now

                def frame(payload: Any, msg_id: int) -> int:
                    message = Message(
                        src=src, dst=dst, payload=payload, sent_at=now, msg_id=msg_id
                    )
                    return len(codec.encode(message)) + codec.FRAME_HEADER.size

                inner_bytes = sum(frame(payload, msg_id) for msg_id, payload in items)
                flow.record_batch(len(items), frame(envelope, 0), inner_bytes)
            self.inner.send(src, dst, envelope)

    def _receive(self, endpoint, message: Message) -> None:
        """Unpack envelopes for ``endpoint``; pass everything else."""
        payload = message.payload
        if not isinstance(payload, BatchEnvelope):
            endpoint.on_message(message)
            return
        self.batches_delivered += 1
        for item in payload.items:
            if endpoint.crashed:
                return  # a handler crashed the endpoint mid-unpack
            endpoint.on_message(
                Message(
                    src=message.src,
                    dst=message.dst,
                    payload=item.payload,
                    sent_at=message.sent_at,
                    delivered_at=message.delivered_at,
                    msg_id=item.msg_id,
                    trace_id=message.trace_id,
                )
            )

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "logical_sent": self.logical_sent,
            "batches_sent": self.batches_sent,
            "batched_payloads": self.batched_payloads,
            "passthrough_sent": self.passthrough_sent,
            "batches_delivered": self.batches_delivered,
        }
