"""A transport decorator that injects message-level faults.

``FaultyTransport`` wraps any :class:`repro.net.transport.Transport` and
perturbs traffic *around* it, never inside it:

* **drops** — a doomed send never reaches the inner transport; the
  decorator mints the envelope itself and emits the ``msg.send`` /
  ``msg.drop`` pair, so the auditor's sends-vs-deliveries accounting
  stays exact;
* **delay spikes / jitter** — the send is rescheduled on the substrate
  clock and handed to the inner transport later (reordering against
  unfaulted traffic falls out naturally);
* **duplicate delivery** — endpoints are attached through the decorator
  base's proxy, so every delivery passes through here; with the
  configured probability the *same envelope* is handed to the endpoint
  twice (same ``msg_id`` — a modeled retransmission), emitting
  a second ``msg.send``/``msg.deliver`` pair so the trace stays
  balanced.  This is exactly the at-least-once behaviour receivers must
  absorb via ``msg_id`` dedup;
* **one-way partitions** — directional drop rules on top of the inner
  transport's symmetric :class:`~repro.net.partition.PartitionController`.

Faults are keyed by actor name (a degraded actor's links misbehave in
both directions; a message is subject to the worse of its two ends) and
driven by :class:`repro.faults.schedule.CrashController` ``degrade`` /
``restore`` / ``partition-oneway`` events.  All randomness comes from a
private seeded stream, so a sim run under a fault schedule is exactly
reproducible and the substrate's own RNG streams are untouched.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

from repro.net.message import Message
from repro.net.transport import TransportDecorator
from repro.obs.bus import emit_message_event, trace_id_of


@dataclass(frozen=True)
class LinkFault:
    """Degradation parameters for one actor's links."""

    #: Per-message drop probability.
    drop: float = 0.0
    #: Per-delivery duplicate probability (same envelope, same msg_id).
    duplicate: float = 0.0
    #: Fixed extra one-way delay in seconds.
    delay: float = 0.0
    #: Uniform extra delay in [0, jitter) seconds.
    jitter: float = 0.0

    def merge(self, other: "LinkFault") -> "LinkFault":
        """The worse of two faults, element-wise."""
        return LinkFault(
            drop=max(self.drop, other.drop),
            duplicate=max(self.duplicate, other.duplicate),
            delay=max(self.delay, other.delay),
            jitter=max(self.jitter, other.jitter),
        )


class FaultyTransport(TransportDecorator):
    """Wraps a transport; injects link faults, one-way rules, duplicates."""

    def __init__(self, inner, clock, seed: int = 0) -> None:
        super().__init__(inner, clock)
        self._rng = random.Random(f"faulty-transport:{seed}")
        self._link_faults: dict[str, LinkFault] = {}
        #: Directional block rules: (src_group, dst_group) frozensets.
        self._oneway: list[tuple[frozenset[str], frozenset[str]]] = []
        #: Envelopes the fault layer itself dropped/duplicated, by reason.
        self.injected: Counter[str] = Counter()

    # -- fault surface (driven by CrashController) --------------------------

    def degrade(
        self,
        targets: Iterable[str],
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Degrade every link touching the named actors."""
        fault = LinkFault(drop=drop, duplicate=duplicate, delay=delay, jitter=jitter)
        for name in targets:
            self._link_faults[name] = fault

    def restore(self, targets: Iterable[str] | None = None) -> None:
        """Clear degradations (all of them when ``targets`` is None)."""
        if targets is None:
            self._link_faults.clear()
            return
        for name in targets:
            self._link_faults.pop(name, None)

    def isolate_oneway(self, src_group: Iterable[str], dst_group: Iterable[str]) -> None:
        """Block traffic ``src_group -> dst_group``; the reverse flows."""
        self._oneway.append((frozenset(src_group), frozenset(dst_group)))

    def heal_oneway(self) -> None:
        self._oneway.clear()

    @property
    def oneway_active(self) -> bool:
        return bool(self._oneway)

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        if self._oneway and self._blocked_oneway(src, dst):
            self._inject_drop(src, dst, payload, "partition-oneway")
            return
        fault = self._fault_for(src, dst)
        if fault is None:
            self.inner.send(src, dst, payload)
            return
        if fault.drop > 0.0 and self._rng.random() < fault.drop:
            self._inject_drop(src, dst, payload, "nemesis-drop")
            return
        extra = fault.delay
        if fault.jitter > 0.0:
            extra += self._rng.random() * fault.jitter
        if extra > 0.0:
            # Handed to the inner transport later: it stamps sent_at and
            # emits msg.send at the delayed time, and slower messages
            # overtake faster ones — reordering for free.
            self.injected["delay"] += 1
            self.clock.schedule(extra, self.inner.send, src, dst, payload)
            return
        self.inner.send(src, dst, payload)

    # -- internals -----------------------------------------------------------

    def _blocked_oneway(self, src: str, dst: str) -> bool:
        return any(src in a and dst in b for a, b in self._oneway)

    def _fault_for(self, src: str, dst: str) -> LinkFault | None:
        if not self._link_faults:
            return None
        fault_src = self._link_faults.get(src)
        fault_dst = self._link_faults.get(dst)
        if fault_src is None:
            return fault_dst
        if fault_dst is None:
            return fault_src
        return fault_src.merge(fault_dst)

    def _inject_drop(self, src: str, dst: str, payload: Any, reason: str) -> None:
        """Drop a send before the inner transport ever sees it, with the
        same counter and trace accounting the inner transport would do."""
        self.injected[reason] += 1
        self._own_sent += 1
        self._own_dropped += 1
        message = Message(src=src, dst=dst, payload=payload, sent_at=self.clock.now)
        self._own_sent_by_type[message.kind] += 1
        obs = self.obs
        if obs is not None:
            message.trace_id = trace_id_of(payload)
            names = self._region_names
            emit_message_event(obs, "msg.send", message, names)
            emit_message_event(obs, "msg.drop", message, names, reason=reason)
        tap = self.trace
        if tap is not None:
            tap(message)

    def _receive(self, endpoint, message: Message) -> None:
        endpoint.on_message(message)
        fault = self._fault_for(message.src, message.dst)
        if fault is None or fault.duplicate <= 0.0:
            return
        if self._rng.random() >= fault.duplicate:
            return
        if endpoint.crashed:
            return
        # Same envelope, same msg_id: a modeled retransmission.  The
        # duplicate gets its own send/deliver event pair so trace
        # accounting stays balanced at every prefix.
        self.injected["duplicate"] += 1
        self._own_sent += 1
        self._own_delivered += 1
        self._own_sent_by_type[message.kind] += 1
        self._own_delivered_by_type[message.kind] += 1
        obs = self.obs
        if obs is not None:
            names = self._region_names
            emit_message_event(obs, "msg.send", message, names)
            emit_message_event(obs, "msg.deliver", message, names, latency=0.0)
        endpoint.on_message(message)
