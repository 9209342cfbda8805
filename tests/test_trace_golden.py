"""Same seed, same bytes: three short traces pinned by digest.

A refactor that claims "trace bytes identical" has to keep these three
``python -m repro`` commands writing exactly these files — one per
harness (core sim with the flow plane, the audited nemesis, the scale
sweep).  Each runs in its own interpreter, as a user would run it, under
a different ``PYTHONHASHSEED``: nothing in a trace may depend on set or
dict-of-str iteration order.  If a change is *meant* to alter the trace,
recompute the digests at the parent commit first, to be sure they were
still these.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: name -> (argv after ``python -m repro``, trace file relative to the run
#: directory, PYTHONHASHSEED, sha256 of the trace).
GOLDEN = {
    "run": (
        ["run", "--system", "samya-majority", "--duration", "30", "--seed", "3",
         "--flow", "--trace", "run/trace.jsonl"],
        "run/trace.jsonl",
        "0",
        "0dd5b13d600392d601de7532726e8ee93c50a93f8e4f2947caadfd08128450c9",
    ),
    "nemesis": (
        ["nemesis", "--seed", "7", "--systems", "samya-majority", "--audit",
         "--trace-dir", "nemesis"],
        "nemesis/nemesis-samya-majority-seed7.jsonl",
        "5",
        "8cc6ffaee6abef497eb8834a0f706f2daa50329d4817345cb83533b86ca97116",
    ),
    "sweep-scale": (
        ["sweep-scale", "--entities", "1000", "--duration", "5", "--seed", "3",
         "--trace", "scale/trace.jsonl"],
        "scale/trace.jsonl",
        "2",
        "3730b449c37e5b381ca27e13f85fe328409c89bd62de3d14adcc878da21609b8",
    ),
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory) -> Path:
    """Run the three commands side by side; the directory they wrote to."""
    cwd = tmp_path_factory.mktemp("golden")
    src = str(Path(repro.__file__).parent.parent)
    runs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for name, (argv, _, hashseed, _) in GOLDEN.items()
    }
    for name, process in runs.items():
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, (name, stderr.decode()[-2000:])
    return cwd


@pytest.mark.parametrize("name", GOLDEN)
def test_trace_bytes_are_the_pinned_ones(golden_dir, name):
    written = (golden_dir / GOLDEN[name][1]).read_bytes()
    assert hashlib.sha256(written).hexdigest() == GOLDEN[name][3]


#: name -> sha256 of what ``repro trace FILE --demand --flow`` printed at
#: ``10de9a4`` (the summary, then the demand report, then the flow
#: report — so also what the flag-less and single-flag invocations
#: print), less the one line allowed to differ: the title of the
#: wire-bytes table, which the summary now borrows from the flow plane.
REPORTS = {
    "run": "3f90d0dbc199a42235cefb7ff4209e76a86f3f479320d59a3718bdf237430894",
    "nemesis": "6c5e56151d8d8187bd21987a7a54aeb42788f61c1774f77c9bf3ba981c026c7c",
    "sweep-scale": "4d15d9d9604c2dfa47e91dc9b2f6c42a295c2394bafdacfcd9215640b8e40db4",
}


@pytest.mark.parametrize("name", REPORTS)
def test_trace_reports_print_what_they_printed(golden_dir, name, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(golden_dir)  # the reports name their source file
    assert main(["trace", GOLDEN[name][1], "--demand", "--flow"]) == 0
    text = "".join(
        line
        for line in capsys.readouterr().out.splitlines(keepends=True)
        if not line.startswith("wire bytes by message type (")
    )
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS[name]


def test_every_report_comes_from_one_pass(golden_dir, monkeypatch, capsys):
    from repro import obs
    from repro.cli import main

    opened = []
    real = obs.iter_trace
    monkeypatch.setattr(
        obs, "iter_trace", lambda path: opened.append(path) or real(path)
    )
    path = str(golden_dir / GOLDEN["run"][1])
    flags = ["--validate", "--audit", "--demand", "--flow", "--critical-path"]
    assert main(["trace", path, *flags]) == 0
    assert opened == [path]
    out = capsys.readouterr().out
    for section in (
        "validated 15039 events", "trace summary", "demand report",
        "flow report", "critical path", "audit: clean",
    ):
        assert section in out, section
