"""Tests for actors and timers."""

from repro.sim.kernel import Kernel
from repro.sim.process import Actor, Timer


class TestTimer:
    def test_fires_after_delay(self):
        kernel = Kernel()
        fired = []
        timer = Timer(kernel, lambda: fired.append(kernel.now))
        timer.restart(2.0)
        kernel.run()
        assert fired == [2.0]

    def test_restart_cancels_previous(self):
        kernel = Kernel()
        fired = []
        timer = Timer(kernel, lambda: fired.append(kernel.now))
        timer.restart(1.0)
        timer.restart(3.0)
        kernel.run()
        assert fired == [3.0]

    def test_cancel(self):
        kernel = Kernel()
        fired = []
        timer = Timer(kernel, lambda: fired.append(1))
        timer.restart(1.0)
        timer.cancel()
        kernel.run()
        assert fired == []

    def test_reusable_after_firing(self):
        kernel = Kernel()
        fired = []
        timer = Timer(kernel, lambda: fired.append(kernel.now))
        timer.restart(1.0)
        kernel.run()
        timer.restart(1.0)
        kernel.run()
        assert fired == [1.0, 2.0]


class TestActor:
    def test_after_schedules_local_work(self):
        kernel = Kernel()
        actor = Actor(kernel, "a")
        seen = []
        actor.after(1.0, seen.append, "x")
        kernel.run()
        assert seen == ["x"]

    def test_crashed_actor_suppresses_pending_work(self):
        kernel = Kernel()
        actor = Actor(kernel, "a")
        seen = []
        actor.after(1.0, seen.append, "x")
        actor.crash()
        kernel.run()
        assert seen == []

    def test_recovered_actor_runs_new_work(self):
        kernel = Kernel()
        actor = Actor(kernel, "a")
        seen = []
        actor.crash()
        actor.recover()
        actor.after(1.0, seen.append, "x")
        kernel.run()
        assert seen == ["x"]

    def test_actor_timer_respects_crash(self):
        kernel = Kernel()
        actor = Actor(kernel, "a")
        seen = []
        timer = actor.timer(lambda: seen.append(1))
        timer.restart(1.0)
        actor.crash()
        kernel.run()
        assert seen == []

    def test_rng_is_per_actor(self):
        kernel = Kernel(seed=1)
        a = Actor(kernel, "a")
        b = Actor(kernel, "b")
        assert a.rng().random() != b.rng().random()
