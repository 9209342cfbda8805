"""Self-check of the benchmark harness (not collected by tier-1).

``pyproject.toml`` sets ``testpaths = ["tests"]``, so the repo's own
suite never runs this; run it by name (about a minute, five traced
workloads at a fifth of their size)::

    python -m pytest benchmarks/e2e/test_selfcheck.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_manifest_is_the_catalogue() -> None:
    declared = subprocess.run(
        [sys.executable, str(HERE / "catalogue.py")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(declared.stdout) == MANIFEST


def test_quick_suite_prints_every_declared_metric(tmp_path) -> None:
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

    units = {
        metric["name"]: metric["unit"]
        for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    }
    printed: dict[tuple[str, str], int] = {}
    for line in done.stdout.splitlines():
        if line.startswith("#") or " host_ref_s " in line:
            continue
        workload, name, value, unit = line.split()
        assert NAME.fullmatch(name), name
        assert unit == units[name], (name, unit)
        float(value)
        printed[workload, name] = printed.get((workload, name), 0) + 1
    expected = {
        (workload["name"], name) for workload in MANIFEST["workloads"] for name in units
    }
    assert set(printed) == expected
    assert set(printed.values()) == {1}

    report = json.loads(out.read_text())
    for workload, entry in report["workloads"].items():
        assert entry["correct"], (workload, entry["problems"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        for metric in MANIFEST["end_to_end"]:
            assert entry["metrics"][metric["name"]]["value"] > 0, (workload, metric)
