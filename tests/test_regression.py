"""Tests for the benchmark regression gate (repro.harness.regression)."""

import json

import pytest

from repro.harness.regression import (
    Figure,
    Tolerance,
    check_artifacts,
    compare_payloads,
    format_report,
    numeric_leaves,
    update_baselines,
)
from repro.harness.report import BENCH_SCHEMA


def payload(headline, seed=3, **extra):
    base = {"bench": "x", "schema": BENCH_SCHEMA, "git_sha": "abc1234",
            "headline": headline, "seed": seed}
    base.update(extra)
    return base


class TestTolerance:
    def test_relative(self):
        tolerance = Tolerance(rel=0.10)
        assert tolerance.allows(100.0, 109.9)
        assert tolerance.allows(100.0, 90.1)
        assert not tolerance.allows(100.0, 111.0)

    def test_absolute_floor_for_small_baselines(self):
        tolerance = Tolerance(rel=0.10, abs=5.0)
        # 10% of 3 is 0.3; the absolute slack keeps tiny counts sane.
        assert tolerance.allows(3.0, 7.0)
        assert not tolerance.allows(3.0, 9.0)

    def test_exact_by_default(self):
        assert Tolerance().allows(5.0, 5.0)
        assert not Tolerance().allows(5.0, 5.0001)

    def test_describe(self):
        assert Tolerance(rel=0.10).describe() == "±10%"
        assert Tolerance(rel=0.25, abs=1.0).describe() == "±25% or ±1"


class TestNumericLeaves:
    def test_nested_paths(self):
        leaves = numeric_leaves({"a": {"b": 1, "c": {"d": 2.5}}, "e": 3})
        assert leaves == {"a.b": 1.0, "a.c.d": 2.5, "e": 3.0}

    def test_non_numeric_skipped(self):
        leaves = numeric_leaves({"s": "text", "flag": True, "xs": [1, 2], "n": 4})
        assert leaves == {"n": 4.0}


class TestSpecSelection:
    def test_longest_prefix_override_wins(self):
        spec = Figure(
            name="x",
            default=Tolerance(rel=0.1),
            overrides={
                "p99_ms": Tolerance(rel=0.25),
                "p99_ms.slow": Tolerance(rel=0.5),
            },
        )
        assert spec.tolerance_for("p99_ms.slow").rel == 0.5
        assert spec.tolerance_for("p99_ms.fast").rel == 0.25
        assert spec.tolerance_for("committed.a").rel == 0.1

    def test_ignore_prefixes(self):
        spec = Figure(name="x", ignore=("debug",))
        assert spec.ignored("debug.counter")
        assert not spec.ignored("debugging")  # prefix match is dotted


class TestComparePayloads:
    SPEC = Figure(name="x", default=Tolerance(rel=0.10))

    def test_within_tolerance_passes(self):
        findings = compare_payloads(
            payload({"tps": 105.0}), payload({"tps": 100.0}), self.SPEC
        )
        assert findings == []

    def test_regression_names_the_metric(self):
        findings = compare_payloads(
            payload({"group": {"tps": 80.0}}),
            payload({"group": {"tps": 100.0}}),
            self.SPEC,
        )
        (finding,) = findings
        assert finding.kind == "regression" and finding.fatal
        assert finding.metric == "group.tps"
        assert "-20.0%" in finding.detail

    def test_missing_and_extra_metrics_fatal(self):
        findings = compare_payloads(
            payload({"new": 1.0}), payload({"old": 1.0}), self.SPEC
        )
        kinds = sorted(finding.kind for finding in findings)
        assert kinds == ["extra", "missing"]
        assert all(finding.fatal for finding in findings)

    def test_seed_mismatch_refuses_comparison(self):
        findings = compare_payloads(
            payload({"tps": 1.0}, seed=4), payload({"tps": 999.0}, seed=3),
            self.SPEC,
        )
        (finding,) = findings
        assert finding.kind == "seed" and finding.fatal

    def test_legacy_baseline_backfilled_as_note(self):
        legacy = {"bench": "x", "headline": {"tps": 100.0}}  # bench-json/1
        findings = compare_payloads(payload({"tps": 100.0}), legacy, self.SPEC)
        (finding,) = findings
        assert finding.kind == "note" and not finding.fatal
        assert "backfilled" in finding.detail


class TestCalibratedMetrics:
    """Wall-clock metrics gated as ratios against the machine calibration."""

    SPEC = Figure(
        name="x",
        default=Tolerance(rel=0.05),
        calibrated={"wall_events_per_sec": Tolerance(rel=0.5)},
    )

    def test_faster_machine_with_same_ratio_passes(self):
        # Current machine dispatches 2x faster and the workload scaled
        # with it: identical ratio, no drift, despite a 2x raw delta
        # that the plain ±5% tolerance would reject.
        findings = compare_payloads(
            payload({"wall_events_per_sec": 200_000.0}, calibration=2_000_000.0),
            payload({"wall_events_per_sec": 100_000.0}, calibration=1_000_000.0),
            self.SPEC,
        )
        assert findings == []

    def test_relative_slowdown_fails(self):
        # Same machine speed, workload 3x slower: a real regression.
        findings = compare_payloads(
            payload({"wall_events_per_sec": 33_000.0}, calibration=1_000_000.0),
            payload({"wall_events_per_sec": 100_000.0}, calibration=1_000_000.0),
            self.SPEC,
        )
        (finding,) = findings
        assert finding.kind == "regression" and finding.fatal
        assert finding.metric == "wall_events_per_sec"
        assert "calibrated ratio" in finding.detail

    @pytest.mark.parametrize(
        "speed, fatal", [(2.3, False), (0.4, True), (1.4, None), (0.6, None)]
    )
    def test_only_a_slowdown_past_tolerance_is_fatal(self, speed, fatal):
        # The calibrated leaves are rates: a 2.3x speed-up says the
        # baseline is stale, not that anything broke; 0.4x is a
        # regression.  Inside ±50% nothing is reported.  Both artifacts
        # carry their own machine stamp, the current one from a 2x
        # faster machine.
        findings = compare_payloads(
            payload(
                {"wall_events_per_sec": 200_000.0 * speed}, calibration=2_000_000.0
            ),
            payload({"wall_events_per_sec": 100_000.0}, calibration=1_000_000.0),
            self.SPEC,
        )
        verdict = format_report(findings, 1, 1).splitlines()[-1]
        if fatal is None:
            assert findings == []
            return
        (finding,) = findings
        assert finding.fatal is fatal
        assert finding.kind == ("regression" if fatal else "note")
        assert f"{(speed - 1) * 100:+.1f}%" in finding.detail
        assert verdict.startswith(
            "regression gate: FAIL" if fatal else "regression gate: PASS"
        )

    def test_missing_calibration_downgrades_to_note(self):
        findings = compare_payloads(
            payload({"wall_events_per_sec": 33_000.0}, calibration=1_000_000.0),
            payload({"wall_events_per_sec": 100_000.0}),  # no stamp
            self.SPEC,
        )
        (finding,) = findings
        assert finding.kind == "note" and not finding.fatal
        assert "calibration" in finding.detail

    def test_uncalibrated_metrics_keep_plain_tolerance(self):
        findings = compare_payloads(
            payload({"tps": 80.0}, calibration=1_000_000.0),
            payload({"tps": 100.0}, calibration=1_000_000.0),
            self.SPEC,
        )
        (finding,) = findings
        assert finding.kind == "regression" and finding.metric == "tps"

    def test_calibration_point_is_cached_and_positive(self):
        from repro.harness import calibration

        calibration._CACHED = None
        try:
            first = calibration.calibration_point(events=5_000)
            second = calibration.calibration_point(events=5_000_000)
            assert first > 0
            assert second == first  # cached: the second call never reruns
        finally:
            calibration._CACHED = None


class TestDirectories:
    def _write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(json.dumps(data))

    def test_check_artifacts_pass_and_fail(self, tmp_path):
        artifacts, baselines = tmp_path / "a", tmp_path / "b"
        self._write(artifacts, "one", payload({"tps": 100.0}))
        self._write(baselines, "one", payload({"tps": 101.0}))
        findings, compared = check_artifacts(artifacts, baselines, {"one"})
        assert findings == [] and compared == 1

        self._write(baselines, "one", payload({"tps": 200.0}))
        findings, _ = check_artifacts(artifacts, baselines, {"one"})
        assert any(finding.kind == "regression" for finding in findings)

    def test_missing_baseline_is_fatal(self, tmp_path):
        artifacts, baselines = tmp_path / "a", tmp_path / "b"
        baselines.mkdir()
        self._write(artifacts, "one", payload({"tps": 1.0}))
        findings, compared = check_artifacts(artifacts, baselines, {"one"})
        assert compared == 0
        assert findings[0].fatal and "no committed baseline" in findings[0].detail

    def test_selection_skips_unselected_baselines(self, tmp_path):
        artifacts, baselines = tmp_path / "a", tmp_path / "b"
        self._write(artifacts, "one", payload({"tps": 1.0}))
        self._write(baselines, "one", payload({"tps": 1.0}))
        self._write(baselines, "two", payload({"tps": 9.0}))
        # A subset run must not fail on baselines it did not run.
        findings, compared = check_artifacts(artifacts, baselines, {"one"})
        assert findings == [] and compared == 1

    def test_update_baselines_backfills_provenance(self, tmp_path):
        artifacts, baselines = tmp_path / "a", tmp_path / "b"
        self._write(artifacts, "one", {"bench": "one", "headline": {"t": 1}})
        (written,) = update_baselines(artifacts, baselines, {"one"})
        promoted = json.loads(written.read_text())
        assert promoted["schema"] == BENCH_SCHEMA
        assert "git_sha" in promoted

    def test_format_report_verdicts(self, tmp_path):
        artifacts, baselines = tmp_path / "a", tmp_path / "b"
        self._write(artifacts, "one", payload({"tps": 50.0}))
        self._write(baselines, "one", payload({"tps": 100.0}))
        findings, compared = check_artifacts(artifacts, baselines, {"one"})
        report = format_report(findings, compared, 1)
        assert "FAIL" in report and "tps" in report
        clean = format_report([], 1, 1)
        assert clean.startswith("regression gate: PASS")


class TestRegisteredSpecs:
    def test_committed_baselines_carry_provenance(self):
        from repro.harness.regression import default_baseline_dir

        for path in default_baseline_dir().glob("BENCH_*.json"):
            data = json.loads(path.read_text())
            assert data.get("schema") == BENCH_SCHEMA, path.name
            assert "git_sha" in data, path.name
            assert "headline" in data, path.name
