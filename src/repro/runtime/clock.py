"""A wall-clock :class:`repro.net.transport.Clock` on the asyncio loop.

``LiveClock`` is duck-type compatible with :class:`repro.sim.kernel.Kernel`
for everything actors use — ``now``, ``schedule``, ``schedule_at``,
``rng`` — so sites, app managers, clients, and baseline replicas run on
it unmodified.  ``now`` is seconds since the clock first touched the
running loop, which keeps trace timestamps, timeouts, and metrics
buckets meaningful without any unit conversion.

Exceptions raised inside scheduled callbacks would normally vanish into
asyncio's default exception handler; the clock records them instead so
the launcher can re-raise the first one after the run — an invariant
violation in a live run must fail the run, exactly as it does in sim.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable

from repro.sim.rng import RngRegistry


class LiveEvent:
    """Cancellable handle for a scheduled callback (sim ``Event`` shape)."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self) -> None:
        self._handle: asyncio.TimerHandle | None = None
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class LiveClock:
    """Wall-clock time + deferred execution for the live substrates."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = RngRegistry(seed)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = 0.0
        self.callbacks_fired = 0
        #: Telemetry bus, same seam as :attr:`repro.sim.kernel.Kernel.obs`
        #: — actors read their bus from the clock they already hold.
        self.obs = None
        #: ``clock.callback`` histogram cached by :meth:`instrument` — the
        #: live analogue of ``kernel.tick`` — or ``None`` with perf off.
        self._perf_fire = None
        #: First exceptions raised by scheduled callbacks, oldest first.
        self.errors: list[BaseException] = []

    def instrument(self, instruments) -> None:
        """Same verb as :meth:`repro.sim.kernel.Kernel.instrument`."""
        perf = instruments.perf
        self._perf_fire = None if perf is None else perf.histogram("clock.callback")

    # -- loop binding -------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._t0 = self._loop.time()
        return self._loop

    @property
    def now(self) -> float:
        """Seconds since this clock was first used inside the loop."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> LiveEvent:
        """Run ``callback(*args)`` ``delay`` wall-seconds from now."""
        loop = self._ensure_loop()
        event = LiveEvent()
        event._handle = loop.call_later(
            max(0.0, delay), self._fire, event, callback, args
        )
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> LiveEvent:
        """Run ``callback(*args)`` at clock time ``time`` (clamped to now)."""
        self._ensure_loop()
        return self.schedule(time - self.now, callback, *args)

    def _fire(self, event: LiveEvent, callback: Callable[..., Any], args: tuple) -> None:
        if event.cancelled:
            return
        self.callbacks_fired += 1
        try:
            if self._perf_fire is None:
                callback(*args)
            else:
                start = perf_counter()
                callback(*args)
                self._perf_fire.record(perf_counter() - start)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the launcher
            self.errors.append(exc)

    def raise_errors(self) -> None:
        """Re-raise the first callback exception of the run, if any."""
        if self.errors:
            raise self.errors[0]
