"""Per-machine calibration point for wall-clock benchmark gating.

Wall-clock metrics (``wall_events_per_sec`` and friends) cannot be
compared across machines directly: a laptop and a CI runner differ by an
arbitrary constant factor.  What *is* comparable is the ratio of a
workload's wall throughput to the machine's throughput on a fixed
reference loop — if the reference loop runs 2x faster on the baseline
machine, the workload should too, and a workload that got *relatively*
slower is a real regression no matter which machine found it.

:func:`calibration_point` is that reference loop: a fixed number of
no-op events through a fresh sim :class:`~repro.sim.kernel.Kernel`
(one self-rescheduling callback, so the heap stays depth-1 and the
measurement is pure dispatch overhead).  The result — events per wall
second — is stamped into bench artifacts as a top-level
``calibration`` field, and the regression gate divides every
calibrated metric by it before comparing (see
``repro.harness.regression.Figure.calibrated``).  Tolerances on
calibrated metrics stay wide (±50%): the ratio removes the machine
constant, not scheduler jitter or thermal noise.
"""

from __future__ import annotations

from time import perf_counter

#: Events in one calibration run.  Big enough that the loop runs for
#: tens of milliseconds (amortizing timer resolution), small enough to
#: add nothing noticeable to a bench job.
CALIBRATION_EVENTS = 200_000

_CACHED: float | None = None


def _noop_loop(events: int) -> float:
    """Wall seconds to dispatch ``events`` no-op kernel events."""
    from repro.sim.kernel import Kernel

    kernel = Kernel(seed=0)
    remaining = events

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            kernel.schedule(1e-6, tick)

    kernel.schedule(0.0, tick)
    start = perf_counter()
    kernel.run()
    return perf_counter() - start


def calibration_point(events: int = CALIBRATION_EVENTS) -> float:
    """This machine's reference dispatch rate, in events per wall second.

    Cached per process: one bench run stamps many artifacts and must
    not pay the reference loop per artifact.  The cache also keeps the
    stamp consistent within a run — every artifact a job writes carries
    the same calibration, measured once before any benchmark warmed or
    thermally throttled the machine's clocks.
    """
    global _CACHED
    if _CACHED is None:
        _CACHED = events / _noop_loop(events)
    return _CACHED
