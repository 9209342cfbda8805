"""Tests for the Jepsen-lite nemesis harness and its CLI entry point.

Seed 0 at duration 70/quiet 15 samples a schedule with two crash
windows plus two degrade windows (asserted below) — the interesting mix
for the recovery path: a crashed site must come back with durable state
*and* absorb message-level adversity.
"""

import pytest

from repro.cli import main
from repro.faults import Nemesis, NemesisConfig
from repro.harness.nemesis import GRACE_MARGIN, NEMESIS_SYSTEMS, run_nemesis
from repro.net.regions import PAPER_REGIONS

SEED = 0
DURATION = 70.0
QUIET = 15.0


@pytest.fixture(scope="module")
def clean_report():
    return run_nemesis(SEED, duration=DURATION, quiet_period=QUIET)


class TestSchedule:
    def test_seed_zero_includes_crash_and_degrade_windows(self):
        schedule = Nemesis(
            SEED,
            tuple(PAPER_REGIONS),
            NemesisConfig(duration=DURATION, quiet_period=QUIET),
        ).schedule()
        actions = {fault.action for fault in schedule}
        assert "crash" in actions
        assert "degrade" in actions

    def test_grace_exceeds_client_request_timeout(self):
        # The harness runs request_timeout + GRACE_MARGIN past the
        # workload; the grace window must outlast the timeout or
        # end-of-run in-flight requests could never be written off and
        # liveness would be unprovable.
        assert GRACE_MARGIN > 0.0


class TestCleanRun:
    def test_every_system_is_safe_and_live(self, clean_report):
        assert set(clean_report.verdicts) == set(NEMESIS_SYSTEMS)
        for system, verdict in clean_report.verdicts.items():
            assert verdict.result.audit_violations == [], system
            assert verdict.result.unanswered == 0, system
            assert verdict.post_heal_committed > 0, system
            # No site may still hold a frozen (pledged) balance once the
            # run has quiesced — an unresolved pledge is a safety FAIL.
            assert verdict.unresolved_pledges == 0, system
            assert verdict.passed, system
        assert clean_report.passed
        assert clean_report.violations() == []

    def test_schedule_recorded_with_final_heal(self, clean_report):
        assert clean_report.final_heal == max(
            fault.time for fault in clean_report.schedule
        )
        assert clean_report.final_heal <= DURATION - QUIET


class TestBrokenRecovery:
    """The acceptance regression: recovery without the WAL must be
    *caught by the auditor* as a conservation violation — proving the
    harness detects a broken recovery path rather than silently passing."""

    def test_wal_disabled_is_flagged_as_conservation_violation(self):
        report = run_nemesis(
            SEED,
            systems=("samya-majority", "demarcation"),
            duration=DURATION,
            quiet_period=QUIET,
            wal_enabled=False,
        )
        assert not report.passed
        for system, verdict in report.verdicts.items():
            assert verdict.result.audit_violations, system
            assert any(
                "conservation" in violation
                for violation in verdict.result.audit_violations
            ), system
        assert all(
            line.startswith(("samya-majority:", "demarcation:"))
            for line in report.violations()
        )


class TestTraces:
    def test_trace_dir_writes_one_trace_per_system(self, tmp_path):
        # The directory does not exist yet: the sink creates the parents.
        trace_dir = tmp_path / "a" / "b"
        report = run_nemesis(
            SEED,
            systems=("samya-majority",),
            duration=DURATION,
            quiet_period=QUIET,
            trace_dir=trace_dir,
        )
        assert report.verdicts["samya-majority"].passed
        path = trace_dir / f"nemesis-samya-majority-seed{SEED}.jsonl"
        assert path.exists()
        from repro.obs.schema import read_trace, validate_events

        events = read_trace(path)
        assert events[0]["type"] == "run.meta"
        assert validate_events(events) == []


class TestCli:
    ARGS = [
        "nemesis", "--seed", str(SEED), "--duration", str(DURATION),
        "--quiet", str(QUIET), "--audit",
    ]

    def test_clean_run_exits_zero(self, capsys):
        assert main(self.ARGS + ["--systems", "samya-majority"]) == 0
        out = capsys.readouterr().out
        assert "nemesis schedule" in out
        assert "pass" in out

    def test_disable_wal_exits_nonzero(self, capsys):
        assert main(self.ARGS + ["--systems", "samya-majority", "--disable-wal"]) == 1
        err = capsys.readouterr().err
        assert "AUDIT" in err

    def test_unknown_system_exits_two(self, capsys):
        assert main(self.ARGS + ["--systems", "nope"]) == 2
