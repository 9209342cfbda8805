"""Profilers: a wall-clock stack sampler + a deterministic event profiler.

Two complementary answers to "where does the time go?":

* :class:`StackSampler` — a timer-driven sampling profiler over
  ``sys._current_frames``.  A daemon thread wakes every ``interval``
  seconds, walks the profiled thread's Python stack, and counts the
  collapsed stack (``outer;...;inner``).  Output is the standard
  collapsed-stack format, so ``flamegraph.pl`` / speedscope / inferno
  render it directly.  Sampling perturbs nothing it measures: the
  profiled thread is never stopped, and a fixed-seed sim run produces
  bit-identical results with the sampler on or off.
* :class:`EventProfiler` — a deterministic profiler for the sim kernel:
  the kernel hands it every dispatched event and the wall seconds its
  callback burned, keyed by callback identity (``module.qualname``).
  Event *counts* are exactly reproducible across runs of the same seed;
  wall columns are the machine's business.

The module-level *active profiler* seam is how ``python -m repro
profile`` reaches builders it does not construct: the CLI installs an
:class:`EventProfiler` with :func:`set_active`, and every harness that
builds a kernel (:class:`repro.harness.experiment.Experiment`,
``repro.scale.harness.build_scale_deployment``) attaches the active
profiler to it.  Like every observability hook in this repo, the seam
costs one ``is None`` test when unused.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any

#: Default sampling period: 5 ms ≈ 200 Hz, cheap enough to leave on for
#: a whole bench run while resolving ms-scale phases.
DEFAULT_INTERVAL = 0.005


class StackSampler:
    """Collapsed-stack sampling profiler for one thread.

    Usage::

        sampler = StackSampler()
        sampler.start()          # samples the *calling* thread
        ...workload...
        sampler.stop()
        sampler.write_collapsed("profile.collapsed")
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.samples: Counter[str] = Counter()
        self.sample_count = 0
        self._target_id: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def start(self, thread_id: int | None = None) -> None:
        """Begin sampling ``thread_id`` (default: the calling thread)."""
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._target_id = thread_id if thread_id is not None else threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        target = self._target_id
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            stack: list[str] = []
            while frame is not None:
                code = frame.f_code
                stack.append(f"{code.co_name} ({code.co_filename}:{code.co_firstlineno})")
                frame = frame.f_back
            # Collapsed format is outermost-first, semicolon-joined.
            self.samples[";".join(reversed(stack))] += 1
            self.sample_count += 1

    # -- output ------------------------------------------------------------

    def collapsed_lines(self) -> list[str]:
        """``stack count`` lines, ready for any flamegraph renderer."""
        return [f"{stack} {count}" for stack, count in sorted(self.samples.items())]

    def write_collapsed(self, path: str | Path) -> int:
        """Write the collapsed-stack profile; returns the sample count."""
        Path(path).write_text(
            "\n".join(self.collapsed_lines()) + ("\n" if self.samples else ""),
            encoding="utf-8",
        )
        return self.sample_count

    def top_rows(self, limit: int = 15) -> list[list[object]]:
        """CLI table: hottest *leaf* frames by inclusive sample count."""
        leaves: Counter[str] = Counter()
        for stack, count in self.samples.items():
            leaves[stack.rsplit(";", 1)[-1]] += count
        total = max(1, self.sample_count)
        return [
            [frame, count, f"{100.0 * count / total:.1f}%"]
            for frame, count in leaves.most_common(limit)
        ]


class EventProfiler:
    """Deterministic per-callback event profiler for the sim kernel.

    ``record`` is called by :meth:`repro.sim.kernel.Kernel.run` with the
    just-fired event and the wall seconds it took.  Keys are the
    callback's ``module.qualname``, so the table reads as "which actor
    method burns the event budget".  Counts are seed-deterministic;
    wall seconds are informational.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.wall: dict[str, float] = {}
        self.events = 0
        self.wall_total = 0.0

    def record(self, event: Any, elapsed: float) -> None:
        callback = event.callback
        key = f"{callback.__module__}.{callback.__qualname__}"
        self.counts[key] += 1
        self.wall[key] = self.wall.get(key, 0.0) + elapsed
        self.events += 1
        self.wall_total += elapsed

    def rows(self, limit: int = 20) -> list[list[object]]:
        """CLI table rows: callback, events, share, wall ms, wall share."""
        wall_total = self.wall_total or 1.0
        events = self.events or 1
        rows: list[list[object]] = []
        for key, count in self.counts.most_common(limit):
            wall = self.wall.get(key, 0.0)
            rows.append(
                [
                    key,
                    count,
                    f"{100.0 * count / events:.1f}%",
                    f"{wall * 1000.0:.2f}",
                    f"{100.0 * wall / wall_total:.1f}%",
                ]
            )
        return rows

    def collapsed_lines(self) -> list[str]:
        """One-frame collapsed stacks weighted by event count."""
        return [f"{key} {count}" for key, count in sorted(self.counts.items())]

    def snapshot(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "wall_seconds": round(self.wall_total, 6),
            "callbacks": {
                key: {
                    "count": count,
                    "wall_ms": round(self.wall.get(key, 0.0) * 1000.0, 3),
                }
                for key, count in sorted(self.counts.items())
            },
        }


#: The profiler the CLI installed for the current process, or ``None``.
_ACTIVE: EventProfiler | None = None


def set_active(profiler: EventProfiler | None) -> None:
    """Install the process-wide event profiler the harness attaches."""
    global _ACTIVE
    _ACTIVE = profiler


def active() -> EventProfiler | None:
    return _ACTIVE


class profile_wall:
    """Context manager: sample the enclosed block's wall-clock stacks.

    Returns the sampler so callers read samples/duration afterwards::

        with profile_wall(out="profile.collapsed") as sampler:
            run_bench()
        print(sampler.sample_count)
    """

    def __init__(
        self, interval: float = DEFAULT_INTERVAL, out: str | Path | None = None
    ) -> None:
        self.sampler = StackSampler(interval=interval)
        self.out = out
        self.duration = 0.0
        self._t0 = 0.0

    def __enter__(self) -> StackSampler:
        self._t0 = perf_counter()
        self.sampler.start()
        return self.sampler

    def __exit__(self, *exc_info: object) -> None:
        self.sampler.stop()
        self.duration = perf_counter() - self._t0
        if self.out is not None:
            self.sampler.write_collapsed(self.out)
