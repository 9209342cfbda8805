"""One figure list, one runner, one verdict path.

The 19 paper-shape benches are rows of ``benchmarks/figures.py`` run by
``repro.harness.regression.run_figures``.  These tests hold the list to
its committed baselines (a bijection, no dead tolerance prefix), push the
cheapest real row through the real runner, pin that a failing row neither
hides the others nor gets promoted, and pin that the pytest launcher, its
two environment variables and the per-file boilerplate are gone.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import repro
from repro import cli
from repro.harness import regression
from repro.harness.regression import (
    Figure,
    check_artifacts,
    default_baseline_dir,
    load_figures,
    numeric_leaves,
    run_figures,
)
from repro.harness.report import BENCH_SCHEMA

SRC = Path(repro.__file__).parent
BENCHMARKS = regression.repo_bench_dir()


def baseline_leaves(name: str) -> dict[str, float]:
    path = default_baseline_dir() / f"BENCH_{name}.json"
    return numeric_leaves(json.loads(path.read_text())["headline"])


class TestFigureList:
    def test_rows_and_baselines_are_a_bijection(self):
        names = [figure.name for figure in load_figures()]
        assert len(names) == len(set(names)) == 19
        assert set(names) == set(regression.bench_files(default_baseline_dir()))

    def test_every_tolerance_prefix_matches_a_baseline_leaf(self):
        """A typo'd prefix would silently fall back to the default."""
        for figure in load_figures():
            leaves = baseline_leaves(figure.name)
            for prefix in (*figure.overrides, *figure.ignore, *figure.calibrated):
                assert any(
                    leaf == prefix or leaf.startswith(prefix + ".")
                    for leaf in leaves
                ), (figure.name, prefix)

    def test_scale_rows_share_one_calibrated_declaration(self):
        rows = {figure.name: figure for figure in load_figures()}
        smoke, sweep = rows["scale_smoke"], rows["scale_entities"]
        assert sweep.calibrated  # so run_figures stamps calibration_point()
        assert list(smoke.calibrated.values()) == list(sweep.calibrated.values())
        assert [p.partition(".")[2] for p in smoke.calibrated] == list(sweep.calibrated)
        assert [p.partition(".")[2] for p in smoke.ignore] == list(sweep.ignore)


class TestRunner:
    def test_fig3a_row_through_the_real_runner(self, tmp_path, capsys):
        rows = [figure for figure in load_figures() if figure.name == "fig3a_trace"]
        (path,) = run_figures(rows, tmp_path)
        assert "Fig 3a" in capsys.readouterr().out
        findings, compared = check_artifacts(
            tmp_path, default_baseline_dir(), {"fig3a_trace"}, rows
        )
        assert findings == [] and compared == 1
        payload = json.loads(path.read_text())
        assert set(numeric_leaves(payload["headline"])) == set(
            baseline_leaves("fig3a_trace")
        )
        # One labelled check per shape assertion of the old bench file.
        assert len(payload["shape"]) == 4
        assert all(check["ok"] for check in payload["shape"])
        assert all(check["label"] and check["detail"] for check in payload["shape"])

    def test_fig3b_and_table2b_share_their_five_runs(self, tmp_path):
        rows = {figure.name: figure for figure in load_figures()}
        fig3b, table2b = rows["fig3b_throughput"], rows["table2b_latency"]
        assert fig3b.points == table2b.points and len(fig3b.points) == 5
        assert fig3b.observed == table2b.observed
        calls, handed = [], {}

        def stub(config):
            calls.append(config)
            return SimpleNamespace(
                metrics_snapshot=None, demand_snapshot=None, flow_snapshot=None
            )

        def capturing(name):
            def headline(results):
                handed[name] = results
                return {}

            return headline

        run_figures(
            [
                replace(row, run=stub, headline=capturing(row.name),
                        shape=lambda results: [], table=lambda results: "")
                for row in (fig3b, table2b)
            ],
            tmp_path,
        )
        assert len(calls) == 5
        assert sum(config.metrics for config in calls) == 1  # the observed point
        for label, result in handed["fig3b_throughput"].items():
            assert handed["table2b_latency"][label] is result


def synthetic_rows() -> list[Figure]:
    def boom(config):
        raise RuntimeError("boom")

    return [
        Figure(name="good", points={"p": 1}, run=lambda config: config,
               headline=lambda results: {"x": results["p"]},
               shape=lambda results: [("x is positive", results["p"] > 0, "1 > 0")]),
        Figure(name="bent", points={"p": 2}, run=lambda config: config,
               headline=lambda results: {"x": results["p"]},
               shape=lambda results: [("x stays below 2", results["p"] < 2, "2 < 2")]),
        Figure(name="broken", points={"p": 3}, run=boom,
               headline=lambda results: {"x": results["p"]}),
    ]


def report_of(out: str) -> str:
    return out[out.index("regression gate findings"):]


class TestOneFailingFigureDoesNotHideTheOthers:
    def test_all_rows_attempted_one_verdict_nothing_bad_promoted(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(regression, "load_figures", synthetic_rows)
        artifacts, baselines = tmp_path / "artifacts", tmp_path / "baselines"
        baselines.mkdir()
        for value, name in enumerate(("good", "bent", "broken"), start=1):
            (baselines / f"BENCH_{name}.json").write_text(json.dumps(
                {"bench": name, "schema": BENCH_SCHEMA, "git_sha": "abc1234",
                 "headline": {"x": value}}
            ))
        argv = ["bench", "--artifacts", str(artifacts), "--baselines", str(baselines)]

        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 1
        # The numbers are on disk even where the shape broke; the row
        # that raised left an artifact that says so.
        written = {
            name: json.loads((artifacts / f"BENCH_{name}.json").read_text())
            for name in ("good", "bent", "broken")
        }
        assert written["good"]["headline"] == {"x": 1}
        assert written["bent"]["headline"] == {"x": 2}
        assert written["broken"]["shape"][0]["error"] is True
        findings = [
            line.split()[:2] for line in report_of(out).splitlines()[3:] if line
        ]
        assert findings[:-1] == [["bent", "shape"], ["broken", "error"]]
        assert "x stays below 2" in out and "RuntimeError: boom" in out
        last = out.strip().splitlines()[-1]
        assert last.startswith("regression gate: FAIL (2 fatal")
        assert "2 artifact(s) compared" in last  # good and bent; good is clean
        assert out.count("regression gate:") == 1

        # The same verdict from the artifacts alone, running nothing.
        assert cli.main([*argv, "--check"]) == 1
        assert report_of(capsys.readouterr().out) == report_of(out)

        # Promotion takes the row with the paper's shape and nothing else.
        for path in baselines.glob("BENCH_*.json"):
            path.unlink()
        assert cli.main([*argv, "--check", "--update-baselines"]) == 1
        out = capsys.readouterr().out
        assert [path.name for path in baselines.glob("BENCH_*.json")] == [
            "BENCH_good.json"
        ]
        assert out.strip().splitlines()[-1].startswith("regression gate: FAIL")


# -- the launcher fork and the per-file boilerplate are gone ---------------


def lines_matching(pattern: str, *roots: Path) -> list[str]:
    """``file:line`` of every line under ``roots`` (``benchmarks/e2e``
    excluded: the repo benchmark is not this PR's) matching ``pattern``."""
    regex = re.compile(pattern)
    return [
        f"{path.name}:{number}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        if "e2e" not in path.parts
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if regex.search(line)
    ]


def test_there_is_one_figure_list_and_one_launcher():
    assert sorted(path.name for path in BENCHMARKS.glob("*.py")) == ["figures.py"]
    assert lines_matching(r"register_baseline\(", BENCHMARKS, SRC) == []
    assert lines_matching(r"from conftest import run_once", BENCHMARKS) == []
    # One artifact writer, one caller: the runner.
    callers = lines_matching(r"(?<!def )\bwrite_bench_json\(", BENCHMARKS, SRC)
    assert [caller.partition(":")[0] for caller in callers] == ["regression.py"]
    # `repro bench` is in-process: no pytest subprocess, no fork to select
    # with an environment variable, no out-dir smuggled through one.
    bench = inspect.getsource(cli.cmd_bench)
    assert "subprocess" not in bench and "pytest" not in bench
    assert "environ" not in inspect.getsource(cli.cmd_profile)
    assert lines_matching(r"REPRO_BENCH_INPROCESS|BENCH_OUT_DIR", SRC) == []
    # "metrics rides the observed point" is said once, where it is applied.
    assert len(lines_matching(r"passive; results identical", BENCHMARKS, SRC)) <= 1
    # A row has no way to be skipped or to be expected to fail.
    fields = {field for field in Figure.__dataclass_fields__}
    assert not fields & {"skip", "xfail", "expected_fail", "tier", "allow"}
