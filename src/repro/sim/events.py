"""Event primitives for the discrete-event kernel.

An :class:`Event` is a callback scheduled at a simulated timestamp.
Events are totally ordered by ``(time, seq)`` where ``seq`` is a
monotonically increasing tie-breaker, so two events scheduled for the
same instant fire in scheduling order.  This determinism is load-bearing:
protocol tests rely on identical replays for identical seeds.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """Handle on a scheduled callback.

    Events support O(1) cancellation: :meth:`cancel` marks the event dead
    and the queue discards it lazily when it reaches the top of the heap.
    The event is *not* the heap key (see :class:`EventQueue`), so it
    defines no ordering of its own.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True
        # Drop references eagerly so cancelled timers do not pin actors.
        self.callback = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class EventQueue:
    """A priority queue of :class:`Event` objects ordered by time.

    ``heap`` holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ``heapq`` orders entries by C tuple comparison of a float and an int
    and never reaches the :class:`Event`.  :meth:`Kernel.run
    <repro.sim.kernel.Kernel.run>` pops ``heap`` directly (lazily
    discarding cancelled events); :meth:`push` is the only way in.
    """

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self.heap)

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        heapq.heappush(self.heap, (time, seq, event))
        return event
