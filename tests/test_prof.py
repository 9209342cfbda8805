"""Tests for the profilers (repro.obs.prof).

The stack sampler is wall-clock driven, so its tests assert structure
(collapsed format, frame naming) rather than counts.  The event
profiler is the deterministic half: the same seed must produce the
same per-callback event counts, sampler attached or not.
"""

import threading
import time

import pytest

from repro.harness import experiment
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs import prof
from repro.obs.prof import EventProfiler, StackSampler, profile_wall


def busy_wait(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(200))


class TestStackSampler:
    def test_samples_the_calling_thread(self):
        sampler = StackSampler(interval=0.001)
        sampler.start()
        try:
            busy_wait(0.15)
        finally:
            sampler.stop()
        assert sampler.sample_count > 0
        lines = sampler.collapsed_lines()
        assert lines
        # Collapsed format: "frame;frame;... count", innermost last.
        stack, _, count = lines[0].rpartition(" ")
        assert int(count) >= 1
        assert ";" in stack
        assert any("busy_wait" in line for line in lines)

    def test_write_collapsed(self, tmp_path):
        sampler = StackSampler(interval=0.001)
        sampler.start()
        try:
            busy_wait(0.05)
        finally:
            sampler.stop()
        out = tmp_path / "profile.collapsed"
        written = sampler.write_collapsed(out)
        assert written == sampler.sample_count
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert len(text.splitlines()) == len(sampler.samples)

    def test_stop_is_idempotent_and_restart_rejected(self):
        sampler = StackSampler(interval=0.001)
        sampler.start()
        sampler.stop()
        sampler.stop()
        sampler.start()  # fresh start after stop is allowed
        sampler.stop()

    def test_profile_wall_context_manager(self, tmp_path):
        out = tmp_path / "ctx.collapsed"
        with profile_wall(interval=0.001, out=out) as sampler:
            busy_wait(0.05)
        assert out.exists()
        assert sampler.sample_count >= 0  # stopped, file written
        assert not any(
            thread.name == "repro-stack-sampler"
            for thread in threading.enumerate()
        )


def run_profiled(seed):
    profiler = EventProfiler()
    prof.set_active(profiler)
    try:
        config = ExperimentConfig(duration=10.0, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "START_INTERVAL", 0)
            Experiment(config).run()
    finally:
        prof.set_active(None)
    return profiler


class TestEventProfiler:
    def test_counts_are_seed_deterministic(self):
        first = run_profiled(seed=5)
        second = run_profiled(seed=5)
        assert first.events > 0
        assert dict(first.counts) == dict(second.counts)

    def test_keys_are_callback_identities(self):
        profiler = run_profiled(seed=5)
        assert all("." in key for key in profiler.counts)
        assert any(key.startswith("repro.") for key in profiler.counts)

    def test_rows_and_collapsed_shapes(self):
        profiler = run_profiled(seed=5)
        rows = profiler.rows(limit=5)
        assert rows and len(rows) <= 5
        assert all(len(row) == 5 for row in rows)
        lines = profiler.collapsed_lines()
        assert len(lines) == len(profiler.counts)
        snapshot = profiler.snapshot()
        assert snapshot["events"] == profiler.events
        assert set(snapshot["callbacks"]) == set(profiler.counts)

    def test_seam_defaults_to_none(self):
        assert prof.active() is None
