"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.system == "samya-majority"
        assert args.duration == 120.0

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "spanner"])


class TestCommands:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--duration", "10", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "committed" in out
        assert "latency p99" in out

    def test_run_with_series(self, capsys):
        code = main(["run", "--duration", "10", "--series"])
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--systems", "samya-majority,demarcation", "--duration", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "samya-majority" in out and "demarcation" in out

    def test_compare_unknown_system_exits_nonzero(self, capsys):
        code = main(["compare", "--systems", "spanner", "--duration", "5"])
        assert code == 2
        assert "unknown systems" in capsys.readouterr().err

    def test_predict(self, capsys):
        code = main(["predict", "--models", "random-walk,seasonal", "--days", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "random-walk" in out and "seasonal" in out

    def test_predict_unknown_model(self, capsys):
        code = main(["predict", "--models", "crystal-ball", "--days", "3"])
        assert code == 2

    def test_trace(self, capsys):
        code = main(["trace", "--days", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "daily_autocorrelation" in out


class TestSweepScale:
    def test_small_sweep_prints_table_and_audits(self, capsys):
        code = main([
            "sweep-scale", "--entities", "50,100", "--duration", "5",
            "--rate", "200", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "scale sweep" in out
        assert "events/s" in out
        assert "conservation audit: clean" in out

    def test_bad_entities_list_exits_two(self, capsys):
        code = main(["sweep-scale", "--entities", "fifty"])
        assert code == 2
        assert "bad --entities" in capsys.readouterr().err

    def test_trace_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "scale.jsonl.gz"
        code = main([
            "sweep-scale", "--entities", "50", "--duration", "3",
            "--rate", "200", "--trace", str(path),
        ])
        assert code == 0
        assert path.exists()


class TestTelemetryTrace:
    def test_run_writes_trace_then_summarizes(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        code = main(["run", "--duration", "10", "--seed", "2",
                     "--trace", str(path)])
        assert code == 0
        assert path.exists()
        capsys.readouterr()
        code = main(["trace", str(path), "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validated" in out
        assert "per-phase latency" in out
        assert "messages by payload type" in out

    def test_trace_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert capsys.readouterr().err

    def test_trace_schema_errors_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0.0, "type": "nope", "node": ""}\n')
        code = main(["trace", str(path), "--validate"])
        assert code == 1
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, table",
        [
            ('{"type":"span.end","ts":1.0}', "per-phase latency"),
            ('{"type":"msg.send","ts":1.0}', "messages by payload type"),
            ("[1]", "trace summary — 1 events"),
        ],
    )
    def test_schema_invalid_trace_summarizes_without_a_traceback(
        self, tmp_path, capsys, line, table
    ):
        # A trace file is outside input: well-formed JSON that breaks the
        # schema renders with "?" rows; only --validate rejects it.
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert table in out and ("?" in out or line == "[1]")
        assert main(["trace", str(path), "--validate"]) == 1
        captured = capsys.readouterr()
        assert "schema error" in captured.err and not captured.out


class TestActiveMonitoring:
    def test_run_audit_clean_exits_zero(self, capsys):
        code = main(["run", "--duration", "10", "--seed", "2", "--audit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "online audit: clean" in out

    def test_gzip_trace_audit_offline(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl.gz"
        assert main(["run", "--duration", "10", "--seed", "2",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        code = main(["trace", str(path), "--audit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "audit: clean" in out

    def test_trace_audit_flags_corruption(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"ts": 0.0, "type": "run.meta", "schema": "repro-trace/1", '
            '"substrate": "sim", "system": "samya-majority", "seed": 1, '
            '"duration": 1.0, "maximum": 10, "predictor": "none", '
            '"reallocator": "greedy"}\n'
            '{"ts": 1.0, "type": "invariant.check", "settled": 4, '
            '"outstanding": 4, "maximum": 10}\n'
        )
        code = main(["trace", str(path), "--audit"])
        captured = capsys.readouterr()
        assert code == 1
        assert "conservation" in captured.out


class TestBenchGate:
    def test_list_shows_registered_benches(self, capsys):
        code = main(["bench", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig3b_throughput" in out
        assert "table2b_latency" in out

    def test_unknown_selection_exits_two(self, capsys):
        code = main(["bench", "--list", "-k", "no-such-bench"])
        assert code == 2
        assert "no registered benchmark" in capsys.readouterr().err

    def test_check_against_committed_baselines(self, tmp_path, capsys):
        import json
        import shutil

        from repro.harness.regression import default_baseline_dir

        source = default_baseline_dir() / "BENCH_fig3b_throughput.json"
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        shutil.copy2(source, artifacts / source.name)
        code = main(["bench", "--check", "-k", "fig3b",
                     "--artifacts", str(artifacts)])
        out = capsys.readouterr().out
        assert code == 0
        assert "regression gate: PASS" in out

        # Perturb one headline number beyond tolerance: named failure.
        data = json.loads(source.read_text())
        data["headline"]["committed"]["MultiPaxSys"] = int(
            data["headline"]["committed"]["MultiPaxSys"] * 2
        )
        (artifacts / source.name).write_text(json.dumps(data))
        code = main(["bench", "--check", "-k", "fig3b",
                     "--artifacts", str(artifacts)])
        out = capsys.readouterr().out
        assert code == 1
        assert "committed.MultiPaxSys" in out
        assert "regression gate: FAIL" in out
