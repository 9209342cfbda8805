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
    and the queue discards it lazily when it reaches the top of the heap
    (or sooner, see :meth:`EventQueue.compact`).  The event is *not* the
    heap key — the heap entry's ``(time, seq)`` is, see
    :class:`EventQueue` — so it defines no ordering of its own.
    ``queue`` is the queue whose heap holds the event, ``None`` once it
    fired or was cancelled.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "queue")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        queue: EventQueue,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and after the event fired."""
        self.cancelled = True
        # Drop references eagerly so cancelled timers do not pin actors.
        self.callback = _noop
        self.args = ()
        queue = self.queue
        if queue is not None:
            # Still in the heap: count it dead exactly once.
            self.queue = None
            queue.dead += 1
            if queue.dead > COMPACT_FLOOR and 2 * queue.dead > len(queue.heap):
                queue.compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


def _noop(*_args: Any) -> None:
    return None


#: Dead entries the heap may hold before :meth:`EventQueue.compact` is
#: considered; below it, popping them lazily is cheaper than a rebuild.
COMPACT_FLOOR = 512


class EventQueue:
    """A priority queue of :class:`Event` objects ordered by time.

    ``heap`` holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ``heapq`` orders entries by C tuple comparison of a float and an int
    and never reaches the :class:`Event`.  :meth:`Kernel.run
    <repro.sim.kernel.Kernel.run>` pops ``heap`` directly (lazily
    discarding cancelled events, and decrementing ``dead`` for each);
    :meth:`push` is the only way in.

    ``dead`` counts the cancelled entries still in ``heap``.  Protocol
    timers are restarted far more often than they fire, so once dead
    entries pass :data:`COMPACT_FLOOR` and half the heap, :meth:`compact`
    drops them all.
    """

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Event]] = []
        self.dead = 0
        self._counter = itertools.count()

    def __len__(self) -> int:
        """Live (not cancelled) events."""
        return len(self.heap) - self.dead

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        seq = next(self._counter)
        event = Event(time, callback, args, self)
        heapq.heappush(self.heap, (time, seq, event))
        return event

    def compact(self) -> None:
        """Drop every cancelled entry.  The list is rebuilt in place
        (``Kernel.run`` holds it), and pop order cannot change: the
        ``(time, seq)`` keys are unique."""
        heap = self.heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self.dead = 0
