"""The discrete-event kernel: a clock plus an event queue.

All times are in **seconds** of simulated time, stored as floats.  The
kernel is single-threaded by design; concurrency in the modelled systems
comes from interleaving events, not from OS threads, so results are
exactly reproducible.
"""

from __future__ import annotations

from heapq import heappop
from math import inf
from time import perf_counter
from typing import Any, Callable

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Kernel:
    """Owns simulated time and dispatches events in timestamp order."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self._queue = EventQueue()
        self._events_fired = 0
        #: Telemetry bus (:class:`repro.obs.bus.EventBus`) or ``None``.
        #: The kernel is the one object every actor holds, so this is the
        #: substrate-wide seam instrumented code reads its bus from; the
        #: harness installs it before any actor is built.  The kernel
        #: itself never emits — event dispatch is far too hot.
        self.obs = None
        #: Refs cached by :meth:`instrument`, each ``None`` when its plane
        #: is off.  Dispatch is the hottest loop in the repo, so the
        #: histograms and the gauge are held directly and the disabled
        #: path stays a single ``is None`` test per site.
        self._perf_tick = None
        self._perf_push = None
        self._flow_heap = None
        #: Either is set: schedules go through :meth:`_push`.
        self._instrumented = False
        #: The bus :meth:`run` holds while it dispatches (``repro.obs.bus``).
        self._bus = None
        #: Event-identity profiler (:class:`repro.obs.prof.EventProfiler`).
        self.profiler = None

    def instrument(self, instruments) -> None:
        """Take what dispatch feeds from a
        :class:`~repro.obs.instruments.Instruments` value.

        ``kernel.tick`` times one dispatch (heap pop + callback) and
        ``kernel.heap_push`` one schedule — wall time only, the
        simulated clock is never read, so results stay bit-identical
        with perf on or off.  The ``kernel.heap`` gauge records heap
        depth on the enqueue side only: pops are the hot loop and the
        watermark is what backpressure analysis needs.
        """
        perf, flow = instruments.perf, instruments.flow
        self._perf_tick = None if perf is None else perf.histogram("kernel.tick")
        self._perf_push = None if perf is None else perf.histogram("kernel.heap_push")
        self._flow_heap = None if flow is None else flow.queue("kernel.heap")
        self._instrumented = perf is not None or flow is not None
        self._bus = instruments.bus
        self.profiler = instruments.profiler

    @property
    def events_fired(self) -> int:
        """Number of events dispatched so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also refuses NaN, for which ``nan < 0`` is false
            raise SimulationError(f"cannot schedule {delay} seconds in the past")
        if self._instrumented:
            return self._push(self.now + delay, callback, args)
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        if self._instrumented:
            return self._push(time, callback, args)
        return self._queue.push(time, callback, args)

    def _push(self, time: float, callback: Callable[..., Any], args: tuple) -> Event:
        """The perf / flow branch of a schedule."""
        if self._perf_push is None:
            event = self._queue.push(time, callback, args)
        else:
            start = perf_counter()
            event = self._queue.push(time, callback, args)
            self._perf_push.record(perf_counter() - start)
        if self._flow_heap is not None:
            self._flow_heap.enqueue(len(self._queue))
        return event

    def step(self) -> bool:
        """Dispatch the next event.  Returns False when the queue is empty."""
        before = self._events_fired
        self.run(max_events=1)
        return self._events_fired != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the budget ends.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so callers can compose
        consecutive ``run`` calls with contiguous time windows (a run cut
        short by ``max_events`` leaves the clock at its last event).

        This is the only dispatch loop.  The perf histogram, profiler
        and bus are read once on entry: instrument before calling
        ``run``.  The bus is held for the whole loop (``repro.obs.bus``).
        """
        heap = self._queue.heap
        tick = self._perf_tick
        profiler = self.profiler
        timed = tick is not None or profiler is not None
        horizon = inf if until is None else until
        # Counts down to zero; an unbounded run starts below it.
        budget = -1 if max_events is None else max(max_events, 0)
        bus = self._bus
        held = bus is not None and bus.hold()
        try:
            while budget and heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                budget -= 1
                self.now = time
                self._events_fired += 1
                if not timed:
                    event.callback(*event.args)
                    continue
                start = perf_counter()
                event.callback(*event.args)
                elapsed = perf_counter() - start
                if tick is not None:
                    tick.record(elapsed)
                if profiler is not None:
                    profiler.record(event, elapsed)
        finally:
            if held:
                bus.release()
        if budget and until is not None and until > self.now:
            self.now = until
