"""The network message envelope.

Payloads are plain dataclasses defined by each protocol; the envelope
carries routing metadata and the delivery timestamp for tracing.

``msg_id`` is monotonically unique per *deployment*: every envelope ever
created gets a fresh id, so a *re-transmission* of the same envelope (a
live transport resending an unacknowledged frame after a reconnect) is
recognizable at the receiver while two independent sends never collide.
Sim transports create one envelope per send and therefore never produce
duplicates — the dedup path only fires over real, lossy channels.

Deployment builders call :func:`reset_msg_ids` so a fixed-seed run
assigns the same ids regardless of what else ran earlier in the
process — without the reset, traces (which record ``msg_id``) and the
flow plane's encoded-byte accounting (digit count varies with the id)
would differ between an isolated run and the same run after another
experiment.  Uniqueness only needs to span one deployment: dedup
windows live inside a transport, and no envelope crosses deployments.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

_msg_ids = itertools.count(1)


def next_msg_id() -> int:
    """The next unique message id (see module docs on the scope)."""
    return next(_msg_ids)


def reset_msg_ids() -> None:
    """Restart the id counter — called at deployment-build boundaries."""
    global _msg_ids
    _msg_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """An envelope delivered by a :class:`repro.net.transport.Transport`."""

    src: str
    dst: str
    payload: Any
    sent_at: float = 0.0
    delivered_at: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=next_msg_id)
    #: Causal correlation id (see :func:`repro.obs.bus.trace_id_of`).
    #: Stamped by the sending transport only when telemetry is enabled,
    #: and carried across the wire so both ends of a socket agree on the
    #: flow a frame belongs to.
    trace_id: str | None = None

    @property
    def kind(self) -> str:
        """Short payload type name, handy for dispatch and tracing."""
        return type(self.payload).__name__


class EnvelopeDedup:
    """Sliding-window ``msg_id`` dedup for at-least-once delivery.

    A live transport may retransmit an unconfirmed frame after a
    reconnect, and the fault layer deliberately re-delivers envelopes;
    either way the same ``msg_id`` arrives twice and the second copy
    must not execute.  The window is bounded so a long run cannot grow
    the seen-set without limit; ``limit`` only needs to exceed the
    number of envelopes that can plausibly be in flight to one receiver.

    Evictions are counted (and optionally reported through ``on_evict``)
    because an eviction is the moment the at-least-once guarantee thins:
    a retransmission older than the window would execute twice.  In
    steady state every insert past ``limit`` evicts, so consumers that
    trace evictions should sample rather than emit per event.
    """

    __slots__ = ("_seen", "_order", "limit", "evictions", "on_evict")

    def __init__(self, limit: int = 1 << 16, on_evict=None) -> None:
        self.limit = limit
        self._seen: set[int] = set()
        self._order: deque[int] = deque()
        #: Total ids aged out of the window since construction.
        self.evictions = 0
        #: Optional ``callback(evictions_total)`` fired on each eviction.
        self.on_evict = on_evict

    def seen(self, msg_id: int) -> bool:
        """Record ``msg_id``; True if it was already in the window."""
        if msg_id in self._seen:
            return True
        self._seen.add(msg_id)
        self._order.append(msg_id)
        if len(self._order) > self.limit:
            self._seen.discard(self._order.popleft())
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(self.evictions)
        return False

    def __len__(self) -> int:
        return len(self._seen)
