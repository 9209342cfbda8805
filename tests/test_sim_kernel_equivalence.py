"""Kernel dispatch checked against a sort-based reference.

Random programs (schedule / schedule_at / cancel, from outside and from
inside callbacks, with same-timestamp ties) run on :class:`Kernel` and
on a reference that re-sorts its pending list by ``(time, seq)`` before
every dispatch.  Firing order, ``pending`` at every firing,
``events_fired`` and the final clock must match however the kernel is
driven and whatever is attached to it — and however often the queue
compacts its cancelled entries away.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instruments import Instruments
from repro.obs.prof import EventProfiler
from repro.sim import events
from repro.sim.kernel import Kernel


class _Handle:
    def __init__(self, time, seq, callback, args):
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    """No heap and no lazy deletion: sort the live events every time."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self._pending = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        handle = _Handle(time, self._seq, callback, args)
        self._seq += 1
        self._pending.append(handle)
        return handle

    @property
    def pending(self):
        return sum(1 for h in self._pending if not h.cancelled)

    def _head(self):
        live = [h for h in self._pending if not h.cancelled]
        return min(live, key=lambda h: (h.time, h.seq)) if live else None

    def step(self):
        head = self._head()
        if head is None:
            return False
        self._pending.remove(head)
        self.now = head.time
        self.events_fired += 1
        head.callback(*head.args)
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            head = self._head()
            if head is None or (until is not None and head.time > until):
                if until is not None and until > self.now:
                    self.now = until
                return
            self.step()
            fired += 1


# A program is a list of event specs.  Spec ``i`` fires after ``delay``
# (relative or absolute-from-now, from a small grid so ties are common)
# and then performs its actions: spawn a later spec, cancel the newest
# handle of any spec — pending, already fired, or the one firing now —
# or restart one (cancel its newest handle, then spawn it, as a
# protocol timer does).
_delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 3.0])
_action = st.tuples(st.sampled_from(["spawn", "spawn", "cancel"]), st.integers(0, 11))
_spec = st.tuples(st.booleans(), _delays, st.lists(_action, max_size=3))
programs = st.tuples(
    st.lists(_spec, min_size=1, max_size=12),
    st.lists(_action, min_size=1, max_size=10),
)
# Cancel-heavy: most actions kill an event, so the dead entries cross a
# (lowered) compaction floor mid-run, from outside and inside callbacks.
_heavy_action = st.tuples(
    st.sampled_from(["spawn", "cancel", "restart", "restart"]), st.integers(0, 15)
)
_heavy_spec = st.tuples(st.booleans(), _delays, st.lists(_heavy_action, max_size=4))
heavy_programs = st.tuples(
    st.lists(_heavy_spec, min_size=1, max_size=16),
    st.lists(_heavy_action, min_size=1, max_size=16),
)


def execute(kernel, program, drive):
    """Run ``program`` on ``kernel``; returns ``(log, events_fired, now)``."""
    specs, roots = program
    log = []
    handles = {}

    def perform(actions, floor):
        for kind, target in actions:
            index = target % len(specs)
            if kind in ("cancel", "restart") and index in handles:
                handles[index].cancel()
            if kind != "cancel" and index >= floor:
                # Spawn strictly later specs only: programs end.
                absolute, delay, _ = specs[index]
                if absolute:
                    handles[index] = kernel.schedule_at(kernel.now + delay, fire, index)
                else:
                    handles[index] = kernel.schedule(delay, fire, index)

    def fire(index):
        log.append((index, kernel.now, kernel.pending))
        perform(specs[index][2], index + 1)

    perform(roots, 0)
    drive(kernel)
    return log, kernel.events_fired, kernel.now


def drive_run(kernel):
    kernel.run()


def drive_step(kernel):
    while kernel.step():
        pass


def drive_budgets(kernel):
    before = -1
    while kernel.events_fired != before:
        before = kernel.events_fired
        kernel.run(max_events=2)


def drive_windows(kernel):
    for until in (0.0, 0.25, 0.6, 0.6, 2.0, 50.0):
        kernel.run(until=until)


DRIVES = [drive_run, drive_step, drive_budgets, drive_windows]


def instrumented_kernel():
    kernel = Kernel()
    instruments = Instruments(perf=True, flow=True)
    instruments.profiler = EventProfiler()
    instruments.attach(kernel)
    return kernel, instruments


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(program=programs)
    def test_every_drive_matches_the_reference(self, program):
        logs = []
        for drive in DRIVES:
            expected = execute(ReferenceKernel(), program, drive)
            assert execute(Kernel(), program, drive) == expected
            logs.append(expected[0])
        # step / budgets / windows compose to the single run().
        assert all(log == logs[0] for log in logs)

    @settings(max_examples=100, deadline=None)
    @given(program=programs)
    def test_instruments_do_not_change_dispatch(self, program):
        for drive in DRIVES:
            kernel, instruments = instrumented_kernel()
            assert execute(kernel, program, drive) == execute(Kernel(), program, drive)
            # The one loop fed both instruments, the one push path both gauges.
            perf, flow = instruments.perf, instruments.flow
            assert instruments.profiler.events == kernel.events_fired
            assert perf.histogram("kernel.tick").count == kernel.events_fired
            pushes = perf.histogram("kernel.heap_push").count
            assert pushes == flow.queue("kernel.heap").enqueued >= kernel.events_fired

    def test_budget_cut_leaves_clock_at_last_event(self):
        for kernel in (Kernel(), ReferenceKernel()):
            kernel.schedule(1.0, lambda: None)
            kernel.schedule(2.0, lambda: None)
            kernel.run(until=10.0, max_events=1)
            assert kernel.now == 1.0
            kernel.run(until=10.0)
            assert (kernel.now, kernel.events_fired) == (10.0, 2)


class TestCompaction:
    """Dropping cancelled entries early is invisible to dispatch."""

    @pytest.mark.parametrize("floor", [0, 2, 5])
    @settings(max_examples=60, deadline=None)
    @given(program=heavy_programs)
    def test_compacting_queue_matches_the_reference(self, floor, program):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(events, "COMPACT_FLOOR", floor)
            for drive in DRIVES:
                kernel = Kernel()
                expected = execute(ReferenceKernel(), program, drive)
                assert execute(kernel, program, drive) == expected
                queue = kernel._queue
                assert queue.dead == sum(entry[2].cancelled for entry in queue.heap)

    def test_timer_churn_crosses_the_real_floor(self, monkeypatch):
        # Protocol-timer shape at the real floor: many timers restarted
        # far more often than they fire, with same-instant ties, cancels
        # from outside and from inside callbacks.
        calls = []
        compact = events.EventQueue.compact

        def counting(queue):
            calls.append(len(queue.heap))
            compact(queue)

        monkeypatch.setattr(events.EventQueue, "compact", counting)
        rng = random.Random(5)
        grid = [0.0, 0.5, 1.0, 1.0, 2.0, 4.0]
        for make in (Kernel, ReferenceKernel):
            kernel = make()
            log = []
            timers = {}

            def restart(name, delay):
                if name in timers:
                    timers[name].cancel()
                timers[name] = kernel.schedule(delay, fire, name)

            def fire(name):
                log.append((name, kernel.now, kernel.pending))
                if len(log) < 1_500:
                    for _ in range(3):
                        restart(rng.randrange(400), rng.choice(grid))

            rng.seed(5)
            for name in range(400):
                restart(name, rng.choice(grid))
            for _ in range(2_000):  # cancels from outside, before running
                restart(rng.randrange(400), rng.choice(grid))
            outside = len(calls)
            kernel.run(until=3.0)
            for name in list(timers)[::3]:  # and between runs
                timers[name].cancel()
            kernel.run()
            if make is Kernel:
                # Compacted both before running and from inside callbacks.
                assert 0 < outside < len(calls)
                assert kernel.pending == 0 and kernel._queue.dead == 0
                result = (log, kernel.events_fired, kernel.now)
            else:
                assert (log, kernel.events_fired, kernel.now) == result


class TestCancellationEdges:
    def test_cancelling_the_head_from_the_event_before_it(self):
        kernel = Kernel()
        seen = []
        head = kernel.schedule(2.0, seen.append, "head")
        kernel.schedule(1.0, head.cancel)
        kernel.schedule(3.0, seen.append, "tail")
        kernel.run()
        assert seen == ["tail"]
        assert kernel.events_fired == 2
        assert kernel.pending == 0

    def test_cancelling_the_head_between_runs(self):
        kernel = Kernel()
        seen = []
        head = kernel.schedule(1.0, seen.append, "head")
        kernel.schedule(2.0, seen.append, "tail")
        kernel.run(until=0.5)
        head.cancel()
        assert kernel.step() is True
        assert seen == ["tail"]
        assert kernel.step() is False

    def test_cancelling_fired_and_firing_events_is_harmless(self):
        kernel = Kernel()
        seen = []
        handles = {}

        def cancel_self():
            handles["self"].cancel()
            seen.append("self")

        fired = kernel.schedule(1.0, seen.append, "fired")
        handles["self"] = kernel.schedule(2.0, cancel_self)
        kernel.schedule(3.0, seen.append, "after")
        kernel.run(until=1.0)
        fired.cancel()
        kernel.run()
        assert seen == ["fired", "self", "after"]
        assert kernel.events_fired == 3

    def test_dead_count_survives_double_and_late_cancels(self):
        kernel = Kernel()
        queue = kernel._queue
        first = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        third = kernel.schedule(3.0, lambda: None)
        third.cancel()
        third.cancel()  # twice: counted once
        assert (queue.dead, kernel.pending) == (1, 2)
        kernel.run(until=1.5)
        first.cancel()  # already fired: not in the heap, not dead
        assert (queue.dead, kernel.pending) == (1, 1)
        kernel.run()
        assert (queue.dead, kernel.pending, kernel.events_fired) == (0, 0, 2)
