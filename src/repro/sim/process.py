"""Actor and timer abstractions on top of the kernel.

Systems in this reproduction are built as collections of *actors*: named
objects that receive messages and set timers.  An actor never blocks; it
reacts to deliveries and timer expirations, mirroring how the real
message-driven servers in the paper behave.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Event
from repro.sim.kernel import Kernel


class Timer:
    """A restartable one-shot timer bound to an actor's kernel.

    Used for protocol timeouts (leader-failure detection, redistribution
    abort timers).  ``restart`` cancels any pending expiration first, so a
    timer object can be reused across protocol rounds.
    """

    def __init__(self, kernel: Kernel, callback: Callable[[], None]) -> None:
        self._kernel = kernel
        self._callback = callback
        self._event: Event | None = None

    def restart(self, delay: float) -> None:
        self.cancel()
        self._event = self._kernel.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class Actor:
    """Base class for every simulated process (site, client, replica...)."""

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.crashed = False

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def obs(self):
        """Telemetry bus (:class:`repro.obs.bus.EventBus`) or ``None``.

        Read from the kernel/clock so one install point covers every
        actor; ``getattr`` keeps bare test doubles (plain objects passed
        as kernels) working unchanged.
        """
        return getattr(self.kernel, "obs", None)

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule local work; the event is dropped if the actor is crashed
        at fire time (a crashed server does no processing)."""
        return self.kernel.schedule(delay, self._guarded, callback, args)

    def timer(self, callback: Callable[[], None]) -> Timer:
        return Timer(self.kernel, lambda: self._guarded(callback, ()))

    def rng(self):
        """This actor's private random stream."""
        return self.kernel.rng.stream(self.name)

    def _guarded(self, callback: Callable[..., Any], args: tuple) -> None:
        if not self.crashed:
            callback(*args)

    # -- crash/recovery hooks (overridden by stateful actors) ------------

    def crash(self) -> None:
        """Mark the actor crashed; pending local work is suppressed."""
        self.crashed = True

    def recover(self) -> None:
        """Bring the actor back; subclasses reload state from stable storage."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
