"""Tests for the discrete-event kernel: ordering, cancellation, clocks."""

import pytest

from repro.sim.kernel import Kernel, SimulationError


class TestEventOrdering:
    """Heap order, tie-break and cancellation, through the one dispatch loop."""

    def test_fires_in_time_order(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(3.0, seen.append, 3)
        kernel.schedule(1.0, seen.append, 1)
        kernel.schedule(2.0, seen.append, 2)
        kernel.run()
        assert seen == [1, 2, 3]

    def test_equal_times_fire_in_scheduling_order(self):
        kernel = Kernel()
        seen = []
        for tag in range(10):
            kernel.schedule(5.0, seen.append, tag)
        kernel.run()
        assert seen == list(range(10))

    def test_cancelled_events_are_skipped(self):
        kernel = Kernel()
        seen = []
        keep = kernel.schedule(1.0, seen.append, "keep")
        drop = kernel.schedule(0.5, seen.append, "drop")
        drop.cancel()
        kernel.run()
        assert seen == ["keep"]
        assert kernel.events_fired == 1
        assert kernel.pending == 0
        assert keep is not drop

    def test_cancel_is_idempotent(self):
        kernel = Kernel()
        event = kernel.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        kernel.run()
        assert kernel.events_fired == 0
        assert kernel.pending == 0

    def test_pending_counts_live_events_only(self):
        # A budget-cut drain can stop with only cancelled timers left in
        # the heap; ``pending`` (hence ``ScaleResult.drained``) must read
        # that as drained.  It used to count the dead timers too.
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        timer = kernel.schedule(5.0, lambda: None)
        assert kernel.pending == 3
        timer.cancel()
        assert kernel.pending == 2
        kernel.run(max_events=2)
        assert kernel.events_fired == 2
        assert kernel.pending == 0


class TestKernel:
    def test_clock_advances_to_event_times(self):
        kernel = Kernel()
        times = []
        kernel.schedule(1.5, lambda: times.append(kernel.now))
        kernel.schedule(0.5, lambda: times.append(kernel.now))
        kernel.run()
        assert times == [0.5, 1.5]

    def test_run_until_stops_and_advances_clock(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, 1)
        kernel.schedule(5.0, fired.append, 5)
        kernel.run(until=2.0)
        assert fired == [1]
        assert kernel.now == 2.0
        kernel.run(until=6.0)
        assert fired == [1, 5]

    def test_scheduling_in_the_past_raises(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-0.1, lambda: None)
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        kernel = Kernel()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                kernel.schedule(1.0, chain, depth + 1)

        kernel.schedule(0.0, chain, 0)
        kernel.run()
        assert seen == [0, 1, 2, 3]
        assert kernel.now == 3.0

    def test_max_events_budget(self):
        kernel = Kernel()
        seen = []
        for index in range(10):
            kernel.schedule(float(index), seen.append, index)
        kernel.run(max_events=4)
        assert seen == [0, 1, 2, 3]

    def test_events_fired_counter(self):
        kernel = Kernel()
        for index in range(5):
            kernel.schedule(float(index), lambda: None)
        kernel.run()
        assert kernel.events_fired == 5

    def test_determinism_across_instances(self):
        def trajectory(seed):
            kernel = Kernel(seed=seed)
            rng = kernel.rng.stream("x")
            values = []
            for _ in range(20):
                kernel.schedule(rng.random(), lambda: values.append(kernel.now))
            kernel.run()
            return values

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)


class TestRngRegistry:
    def test_streams_are_stable_and_independent(self):
        kernel = Kernel(seed=7)
        a1 = [kernel.rng.stream("a").random() for _ in range(5)]
        b1 = [kernel.rng.stream("b").random() for _ in range(5)]
        kernel2 = Kernel(seed=7)
        b2 = [kernel2.rng.stream("b").random() for _ in range(5)]
        a2 = [kernel2.rng.stream("a").random() for _ in range(5)]
        # Order of stream creation does not matter.
        assert a1 == a2
        assert b1 == b2
        assert a1 != b1

    def test_fork_derives_new_seed(self):
        kernel = Kernel(seed=7)
        fork = kernel.rng.fork("child")
        assert fork.master_seed != kernel.rng.master_seed
        assert fork.stream("a").random() != kernel.rng.stream("a").random()
